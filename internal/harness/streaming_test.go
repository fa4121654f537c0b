package harness

import (
	"bytes"
	"runtime"
	"testing"

	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
)

// TestStreamingTelemetryOracle proves the streaming CSV exporter against
// the buffered one on a full experiment: a short run with buffered
// collection, exported at the end, must be byte-identical to the same
// run streamed incrementally through a small ring window. The buffered
// path is the oracle; any divergence in the incremental emitter fails
// here. Run returns the stream's first write error, if any.
func TestStreamingTelemetryOracle(t *testing.T) {
	buffered := quickConfig(SchemeSwitchV2P)
	buffered.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
	oracle, err := Run(buffered)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := oracle.Telemetry.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	var gotCSV bytes.Buffer
	streamed := quickConfig(SchemeSwitchV2P)
	streamed.Telemetry = &telemetry.Options{
		Interval: 5 * simtime.Microsecond,
		Stream:   &telemetry.StreamOptions{CSV: &gotCSV, Window: 16},
	}
	rep, err := Run(streamed)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("streamed CSV diverges from buffered oracle (%d vs %d bytes)", gotCSV.Len(), wantCSV.Len())
	}
	// Streaming must not perturb the simulation either.
	if got, want := reportFingerprint(rep), reportFingerprint(oracle); got != want {
		t.Errorf("streaming telemetry perturbed the run\nbuffered: %s\nstreamed: %s", want, got)
	}
	if rep.Telemetry.Timeline.Dropped == 0 {
		t.Error("window never evicted; test did not exercise the ring")
	}
	if got := len(rep.Telemetry.Timeline.Times); got > 16 {
		t.Errorf("streaming collector retains %d samples, window is 16", got)
	}
}

// TestStreamingLongHorizonConstantMemory runs a long simulated horizon
// with streaming telemetry and checks, via in-simulation heap
// checkpoints, that retained memory does not grow with simulated time:
// the collector holds only its ring window no matter how many samples
// have been emitted.
func TestStreamingLongHorizonConstantMemory(t *testing.T) {
	var csv lengthWriter
	cfg := quickConfig(SchemeSwitchV2P)
	cfg.Duration = 10 * simtime.Millisecond // 50x the quick config
	cfg.MaxFlows = 200
	cfg.Telemetry = &telemetry.Options{
		Interval: 500 * simtime.Nanosecond, // ~20k ticks over the run
		Stream:   &telemetry.StreamOptions{CSV: &csv, Window: 64},
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	heapAt := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var early, late uint64
	w.Engine.Q.At(2*simtime.Time(simtime.Millisecond), func() { early = heapAt() })
	w.Engine.Q.At(10*simtime.Time(simtime.Millisecond), func() { late = heapAt() })
	w.Engine.Run(simtime.Never)
	if err := w.Telem.FlushStreams(); err != nil {
		t.Fatal(err)
	}

	if early == 0 || late == 0 {
		t.Fatal("heap checkpoints did not run")
	}
	ticks := w.Telem.Ticks()
	if ticks < 10000 {
		t.Fatalf("only %d ticks; horizon too short to prove anything", ticks)
	}
	if got := len(w.Telem.Timeline.Times); got > 64 {
		t.Errorf("collector retains %d samples, window is 64", got)
	}
	if w.Telem.Timeline.Dropped != ticks-int64(len(w.Telem.Timeline.Times)) {
		t.Errorf("eviction accounting off: %d dropped, %d ticks, %d retained",
			w.Telem.Timeline.Dropped, ticks, len(w.Telem.Timeline.Times))
	}
	if csv.n == 0 {
		t.Error("no CSV bytes streamed")
	}
	// Between the checkpoints ~16k further samples stream out. Buffered
	// collection would retain them all (multi-MB); streaming must stay
	// within GC noise. 3 MiB is far below the buffered footprint.
	const slack = 3 << 20
	if late > early+slack {
		t.Errorf("heap grew %d bytes between 2ms and 10ms of simulated time; streaming should be constant-memory", late-early)
	}
}

// lengthWriter counts bytes without retaining them, so the test's own
// sink cannot mask collector growth.
type lengthWriter struct{ n int64 }

func (l *lengthWriter) Write(p []byte) (int, error) {
	l.n += int64(len(p))
	return len(p), nil
}
