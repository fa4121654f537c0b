package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(40 * Microsecond)
	if got := t1.Sub(t0); got != 40*Microsecond {
		t.Fatalf("Sub = %v, want 40µs", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("ordering broken: t0=%v t1=%v", t0, t1)
	}
	if t1.Before(t1) || t1.After(t1) {
		t.Fatalf("time must not be before/after itself")
	}
}

func TestDurationConstants(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatalf("constants wrong: s=%d ms=%d us=%d", Second, Millisecond, Microsecond)
	}
}

func TestString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("Time(1500).String() = %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Fatalf("Never.String() = %q", got)
	}
	if got := (40 * Microsecond).String(); got != "40µs" {
		t.Fatalf("Duration.String() = %q", got)
	}
}

func TestFromStd(t *testing.T) {
	if got := FromStd(3 * time.Millisecond); got != 3*Millisecond {
		t.Fatalf("FromStd = %v", got)
	}
}

func TestSecondsMicros(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Seconds(); got != 0.0015 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := d.Micros(); got != 1500 {
		t.Fatalf("Micros = %v", got)
	}
}

func TestTransmitTime(t *testing.T) {
	// 1500 bytes at 100 Gbps = 120 ns.
	if got := TransmitTime(1500, 100e9); got != 120 {
		t.Fatalf("TransmitTime(1500, 100G) = %d ns, want 120", got)
	}
	// 1500 bytes at 400 Gbps = 30 ns.
	if got := TransmitTime(1500, 400e9); got != 30 {
		t.Fatalf("TransmitTime(1500, 400G) = %d ns, want 30", got)
	}
	// Rounds up: 1 byte at 400 Gbps is 0.02 ns -> 1 ns.
	if got := TransmitTime(1, 400e9); got != 1 {
		t.Fatalf("TransmitTime(1, 400G) = %d ns, want 1", got)
	}
	if got := TransmitTime(0, 400e9); got != 0 {
		t.Fatalf("TransmitTime(0) = %d ns, want 0", got)
	}
}

func TestTransmitTimePanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero bandwidth")
		}
	}()
	TransmitTime(1, 0)
}

func TestTransmitTimeMonotonic(t *testing.T) {
	// Property: transmit time is monotonically non-decreasing in size.
	f := func(a, b uint16) bool {
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return TransmitTime(s1, 100e9) <= TransmitTime(s2, 100e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransmitTimeAdditiveUpperBound(t *testing.T) {
	// Property: ceil rounding means t(a)+t(b) >= t(a+b).
	f := func(a, b uint16) bool {
		return TransmitTime(int(a), 100e9)+TransmitTime(int(b), 100e9) >= TransmitTime(int(a)+int(b), 100e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdConversions(t *testing.T) {
	if got := Time(1500).Std(); got != 1500*time.Nanosecond {
		t.Fatalf("Time.Std = %v", got)
	}
	if got := (2 * Millisecond).Std(); got != 2*time.Millisecond {
		t.Fatalf("Duration.Std = %v", got)
	}
}
