// Package simtime defines the simulated clock used throughout the
// simulator. Simulated time is a monotonically increasing count of
// nanoseconds since the start of a simulation run; it has no relation to
// wall-clock time, which keeps runs fully deterministic.
package simtime

import "time"

// Time is an instant in simulated time, in nanoseconds since the start of
// the run. The zero value is the start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable instant. It is used for
// "no deadline" bookkeeping.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Std converts t to a time.Duration offset from the simulation start,
// which is convenient for formatting.
func (t Time) Std() time.Duration { return time.Duration(t) }

// String formats the instant as an offset, e.g. "503.2µs".
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return time.Duration(t).String()
}

// Std converts the duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the duration, e.g. "40µs".
func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// FromStd converts a time.Duration into a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// TransmitTime returns how long it takes to serialize size bytes onto a link
// of the given bandwidth in bits per second. It rounds up to a whole
// nanosecond so that back-to-back packets never overlap.
func TransmitTime(sizeBytes int, bitsPerSecond int64) Duration {
	// Plain panic message: this runs on the serialization hot path, where
	// fmt would allocate; bandwidth is validated once at topology wiring,
	// so the value would add nothing here.
	if bitsPerSecond <= 0 {
		panic("simtime: non-positive bandwidth")
	}
	bits := int64(sizeBytes) * 8
	ns := (bits*int64(Second) + bitsPerSecond - 1) / bitsPerSecond
	return Duration(ns)
}
