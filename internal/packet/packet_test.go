package packet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"switchv2p/internal/netaddr"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Data: "data", Ack: "ack", Learning: "learning", Invalidation: "invalidation", Kind(9): "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewDataDefaults(t *testing.T) {
	p := NewData(7, 3, 1000, 10, 20, 30)
	if p.Kind != Data || p.Resolved {
		t.Fatalf("NewData: kind=%v resolved=%v", p.Kind, p.Resolved)
	}
	if p.HitSwitch != NoSwitch {
		t.Fatalf("HitSwitch = %d, want NoSwitch", p.HitSwitch)
	}
	if p.Payload != 1000 || p.Seq != 3 || p.FlowID != 7 {
		t.Fatalf("fields wrong: %+v", p)
	}
}

func TestSizeAccounting(t *testing.T) {
	p := NewData(1, 0, 1000, 10, 20, 30)
	base := OuterIPBytes + TunnelBaseBytes + InnerIPBytes + TCPHeaderBytes
	if got := p.Size(); got != base+1000 {
		t.Fatalf("Size = %d, want %d", got, base+1000)
	}
	p.Spill = netaddr.Mapping{VIP: 1, PIP: 2}
	if got := p.Size(); got != base+1000+OptionBytes {
		t.Fatalf("Size with spill = %d, want %d", got, base+1000+OptionBytes)
	}
	p.Promote = netaddr.Mapping{VIP: 3, PIP: 4}
	p.Misdelivered = true
	p.HitSwitch = 12
	want := base + 1000 + 4*OptionBytes
	if got := p.Size(); got != want {
		t.Fatalf("Size with all options = %d, want %d", got, want)
	}
}

func TestControlPacketSizes(t *testing.T) {
	lp := NewLearning(netaddr.Mapping{VIP: 1, PIP: 2}, 10, 20)
	want := OuterIPBytes + TunnelBaseBytes + OptionBytes
	if got := lp.Size(); got != want {
		t.Fatalf("learning packet size = %d, want %d", got, want)
	}
	ip := NewInvalidation(1, 2, 10, 20)
	if got := ip.Size(); got != want {
		t.Fatalf("invalidation packet size = %d, want %d", got, want)
	}
	if !lp.Resolved || !ip.Resolved {
		t.Fatalf("control packets must be resolved (they never visit the gateway)")
	}
}

func TestMaxPayloadFitsMTU(t *testing.T) {
	p := NewData(1, 0, MaxPayload, 10, 20, 30)
	p.Spill = netaddr.Mapping{VIP: 1, PIP: 2}
	p.Promote = netaddr.Mapping{VIP: 3, PIP: 4}
	p.Misdelivered = true
	if p.Size() > MTU {
		t.Fatalf("max-payload packet with all options exceeds MTU: %d > %d", p.Size(), MTU)
	}
}

func TestClone(t *testing.T) {
	p := NewData(1, 0, 100, 10, 20, 30)
	p.Spill = netaddr.Mapping{VIP: 5, PIP: 6}
	q := p.Clone()
	q.Seq = 99
	q.Spill.VIP = 7
	if p.Seq != 0 || p.Spill.VIP != 5 {
		t.Fatalf("Clone aliases original: %+v", p)
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	buf := p.Marshal()
	if len(buf) != p.Size() {
		t.Fatalf("Marshal length %d != Size %d", len(buf), p.Size())
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return q
}

func TestWireRoundTripData(t *testing.T) {
	p := NewData(77, 5, 900, 11, 22, 33)
	p.DstPIP = 44
	p.Resolved = true
	p.Fin = true
	p.FirstSent = true
	p.Hops = 6
	p.HitSwitch = 12
	p.Spill = netaddr.Mapping{VIP: 1, PIP: 2}
	p.Promote = netaddr.Mapping{VIP: 3, PIP: 4}
	p.Misdelivered = true
	p.StalePIP = 55
	q := roundTrip(t, p)
	p.UID, p.SentAt = 0, 0 // not on the wire
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestWireRoundTripControl(t *testing.T) {
	for _, p := range []*Packet{
		NewLearning(netaddr.Mapping{VIP: 9, PIP: 8}, 1, 2),
		NewInvalidation(9, 8, 1, 2),
	} {
		q := roundTrip(t, p)
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("control round trip mismatch:\n got %+v\nwant %+v", q, p)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	p := NewData(1, 0, 100, 10, 20, 30)
	buf := p.Marshal()
	for _, n := range []int{0, 10, OuterIPBytes, OuterIPBytes + TunnelBaseBytes + 5} {
		if n >= len(buf) {
			continue
		}
		if _, err := Unmarshal(buf[:n]); err == nil {
			t.Fatalf("Unmarshal(%d bytes) succeeded, want error", n)
		}
	}
}

func TestUnmarshalUnknownOption(t *testing.T) {
	p := NewLearning(netaddr.Mapping{VIP: 1, PIP: 2}, 3, 4)
	buf := p.Marshal()
	buf[OuterIPBytes+TunnelBaseBytes] = 99 // corrupt the option type
	if _, err := Unmarshal(buf); err == nil {
		t.Fatalf("expected unknown-option error")
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewData(rng.Uint64(), rng.Intn(1<<16), rng.Intn(MaxPayload+1),
			netaddr.VIP(rng.Uint32()|1), netaddr.VIP(rng.Uint32()|1), netaddr.PIP(rng.Uint32()|1))
		p.DstPIP = netaddr.PIP(rng.Uint32() | 1)
		p.Resolved = rng.Intn(2) == 0
		p.WasMisdelivered = rng.Intn(2) == 0
		p.AckNo = rng.Intn(1 << 16)
		if rng.Intn(2) == 0 {
			p.Spill = netaddr.Mapping{VIP: netaddr.VIP(rng.Uint32() | 1), PIP: netaddr.PIP(rng.Uint32() | 1)}
		}
		if rng.Intn(2) == 0 {
			p.HitSwitch = int32(rng.Intn(1000))
		}
		q := roundTrip(t, p)
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringContainsEssentials(t *testing.T) {
	p := NewData(7, 3, 100, 10, 20, 30)
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"data", "flow=7", "seq=3", "unresolved"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkMarshal(b *testing.B) {
	p := NewData(1, 0, 1000, 10, 20, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}
