package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/simtime"
)

// driveSampler runs a collector against a synthetic event queue: dummy
// events keep the queue non-empty so the sampler re-arms for exactly
// ticks samples. The probes read a shared deterministic counter.
func driveSampler(c *Collector, ticks int) {
	q := &eventq.Queue{}
	var step int64
	c.AddProbe("lin", func() float64 { return float64(step) })
	c.AddProbe("saw", func() float64 { return float64(step % 7) })
	c.Attach(q)
	// One filler event between consecutive ticks so Q.Len() > 0 when
	// each of the first ticks-1 samples fires (the sampler then re-arms
	// exactly ticks times); the filler advances the counter.
	for i := 1; i < ticks; i++ {
		q.At(simtime.Time(i)*simtime.Time(c.Interval)+1, func() { step++ })
	}
	q.Run(simtime.Never)
}

func TestStreamMatchesBufferedOracle(t *testing.T) {
	iv := 10 * simtime.Microsecond
	const ticks = 100

	buffered := New(Options{Interval: iv})
	driveSampler(buffered, ticks)
	var wantCSV bytes.Buffer
	if err := buffered.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	var gotCSV bytes.Buffer
	streaming := New(Options{Interval: iv, Stream: &StreamOptions{CSV: &gotCSV, Window: 8}})
	driveSampler(streaming, ticks)
	if err := streaming.FlushStreams(); err != nil {
		t.Fatal(err)
	}

	if gotCSV.String() != wantCSV.String() {
		t.Errorf("streamed CSV diverges from buffered oracle\nstreamed:\n%s\nbuffered:\n%s",
			gotCSV.String(), wantCSV.String())
	}
	if lines := strings.Count(gotCSV.String(), "\n"); lines != ticks+1 {
		t.Errorf("streamed CSV has %d lines, want %d rows + header", lines, ticks)
	}
}

func TestStreamWindowBoundsRetention(t *testing.T) {
	const window, ticks = 8, 100
	c := New(Options{Interval: simtime.Microsecond, Stream: &StreamOptions{
		CSV: &bytes.Buffer{}, Window: window,
	}})
	driveSampler(c, ticks)
	if got := len(c.Timeline.Times); got != window {
		t.Errorf("retained %d samples, want window %d", got, window)
	}
	for _, s := range c.Timeline.Series {
		if got := len(s.Values); got != window {
			t.Errorf("series %s retained %d values, want %d", s.Name, got, window)
		}
	}
	if got, want := c.Timeline.Dropped, int64(ticks-window); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	if got := c.Ticks(); got != ticks {
		t.Errorf("Ticks() = %d, want %d", got, ticks)
	}
	// The retained window must be the most recent samples, in order.
	last := c.Timeline.Times[window-1]
	if want := simtime.Time(ticks) * simtime.Time(c.Interval); last != want {
		t.Errorf("last retained sample at %v, want %v", last, want)
	}
}

// TestStreamSummaryMatchesBuffered: the running aggregates behind
// Summary must report the same last/max a buffered run computes, even
// after window eviction discarded the maximal sample.
func TestStreamSummaryMatchesBuffered(t *testing.T) {
	iv := simtime.Microsecond
	buffered := New(Options{Interval: iv})
	driveSampler(buffered, 50)
	streaming := New(Options{Interval: iv, Stream: &StreamOptions{CSV: &bytes.Buffer{}, Window: 4}})
	driveSampler(streaming, 50)

	strip := func(s string) string {
		// Drop the streaming-retention line: it is the one intended
		// difference between the two digests.
		var out []string
		for _, ln := range strings.Split(s, "\n") {
			if strings.Contains(ln, "streaming:") {
				continue
			}
			out = append(out, ln)
		}
		return strings.Join(out, "\n")
	}
	if got, want := strip(streaming.Summary()), strip(buffered.Summary()); got != want {
		t.Errorf("streaming Summary diverges\nstreaming:\n%s\nbuffered:\n%s", got, want)
	}
}

func TestProfileOnlyIgnoresStream(t *testing.T) {
	var buf bytes.Buffer
	c := New(Options{ProfileOnly: true, Stream: &StreamOptions{CSV: &buf}})
	if c.stream != nil {
		t.Error("ProfileOnly collector must not stream")
	}
	c.Attach(&eventq.Queue{})
	if buf.Len() != 0 {
		t.Error("ProfileOnly collector emitted stream bytes")
	}
	if err := c.FlushStreams(); err != nil {
		t.Errorf("FlushStreams on profile-only collector: %v", err)
	}
}
