package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"switchv2p/internal/core"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
)

// reportFingerprint flattens every simulation-visible Report field into a
// comparable string. Telemetry and World are deliberately excluded: the
// former only exists on instrumented runs, the latter holds pointers.
func reportFingerprint(r *Report) string {
	return fmt.Sprintf("%s|%+v|%v|%d|%d|%v|%d|%v|%v|%d|%v|%d|%d|%d|%v|%d|%d|%d|%d",
		r.Scheme, r.Summary, r.HitRate, r.GatewayPackets, r.HostSent,
		r.AvgStretch, r.TotalSwitchBytes, r.PerPodBytes, r.PerSwitchBytes,
		r.Misdeliveries, r.LastMisdelivered, r.Drops, r.LearningPkts,
		r.InvalidationPkts, r.AvgPacketLatency,
		r.FaultDrops, r.LossDrops, r.Rerouted, r.FaultEvents)
}

// TestTelemetryZeroPerturbation is the guard the tentpole promises:
// attaching the collector must not change a single simulation result.
func TestTelemetryZeroPerturbation(t *testing.T) {
	for _, scheme := range []string{SchemeSwitchV2P, SchemeGwCache, SchemeNoCache} {
		plain, err := Run(quickConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig(scheme)
		cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
		instrumented, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportFingerprint(instrumented), reportFingerprint(plain); got != want {
			t.Fatalf("%s: telemetry perturbed the run\nplain:        %s\ninstrumented: %s", scheme, want, got)
		}
		if instrumented.CoreStats != nil && !reflect.DeepEqual(instrumented.CoreStats, plain.CoreStats) {
			t.Fatalf("%s: telemetry perturbed core stats", scheme)
		}
		if instrumented.Telemetry == nil || len(instrumented.Telemetry.Timeline.Times) == 0 {
			t.Fatalf("%s: instrumented run collected no samples", scheme)
		}
		if plain.Telemetry != nil {
			t.Fatalf("%s: plain run grew a collector", scheme)
		}
	}
}

// TestTelemetryProfileRun checks the engine profiling hooks: a profiled
// run is the same simulation, and its profile is filled in.
func TestTelemetryProfileRun(t *testing.T) {
	plain, err := Run(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(SchemeSwitchV2P)
	cfg.Telemetry = &telemetry.Options{ProfileOnly: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportFingerprint(r), reportFingerprint(plain); got != want {
		t.Fatalf("profiled run diverged\nplain:    %s\nprofiled: %s", want, got)
	}
	p := &r.Telemetry.Profile
	if p.Events == 0 || p.HeapHighWater == 0 || p.Wall <= 0 || p.SimEnd == 0 {
		t.Fatalf("profile not populated: %+v", p)
	}
	if len(r.Telemetry.Timeline.Times) != 0 {
		t.Fatal("profile-only run recorded timeline samples")
	}
}

// TestTelemetryCountersReconcile checks the exported counters and gauges
// against the run they describe, on the serial engine and at two shards.
// The fault scenario's loss window and failures force retransmissions, so
// the transport counter cannot pass by being zero on both sides.
func TestTelemetryCountersReconcile(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := faultyConfig(SchemeSwitchV2P, 7)
		cfg.Shards = shards
		cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tel := r.Telemetry
		values := map[string]telemetry.GaugeValue{}
		for _, c := range tel.Counters() {
			values[c.Name] = telemetry.GaugeValue{Name: c.Name, Value: c.Value}
		}
		for _, g := range tel.Gauges() {
			values[g.Name] = g
		}

		if r.Summary.Retransmits == 0 {
			t.Fatalf("shards=%d: the fault scenario forced no retransmissions", shards)
		}
		if got := values["transport.retransmits"].Value; got != r.Summary.Retransmits {
			t.Errorf("shards=%d: transport.retransmits = %d, flow records sum to %d", shards, got, r.Summary.Retransmits)
		}
		buf := values["net.switch_buffer_bytes"]
		if buf.HighWater == 0 || buf.Value != 0 {
			t.Errorf("shards=%d: net.switch_buffer_bytes = %+v, want a nonzero high water and 0 after drain", shards, buf)
		}
		cs := r.World.Scheme.(interface{ Cache(int32) *core.Cache })
		var capacity int64
		for i := range r.World.Topo.Switches {
			capacity += int64(cs.Cache(int32(i)).Len())
			for j, v := range tel.Timeline.Find(fmt.Sprintf("sw%d.queue_bytes", i)).Values {
				if int64(v) > buf.HighWater {
					t.Fatalf("shards=%d: sw%d.queue_bytes sample %d reads %g, above the gauge's high water %d",
						shards, i, j, v, buf.HighWater)
				}
			}
		}
		if got := values["cache.capacity_entries"]; got.Value != capacity || got.HighWater != capacity {
			t.Errorf("shards=%d: cache.capacity_entries = %+v, per-switch caches hold %d lines", shards, got, capacity)
		}
	}
}

// TestSweepParallelDeterminism checks that sweeps run through the worker
// pool at GOMAXPROCS 4 export byte-identical CSV to serial runs at
// GOMAXPROCS 1.
func TestSweepParallelDeterminism(t *testing.T) {
	cfg := quickConfig(SchemeSwitchV2P)
	schemes := []string{SchemeSwitchV2P, SchemeNoCache}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	runBoth := func(name string, export func(Config) ([]byte, error)) {
		t.Helper()
		runtime.GOMAXPROCS(1)
		s, err := export(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		runtime.GOMAXPROCS(4)
		p, err := export(cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !bytes.Equal(s, p) {
			t.Fatalf("%s: parallel CSV differs from serial\nserial:\n%s\nparallel:\n%s", name, s, p)
		}
	}

	runBoth("cache", func(cfg Config) ([]byte, error) {
		pts, err := CacheSizeSweep(cfg, []float64{0.25, 1}, schemes)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteSweepCSV(&buf, pts); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	runBoth("gateway", func(cfg Config) ([]byte, error) {
		pts, err := GatewaySweep(cfg, []int{4, 2}, schemes)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteGatewayCSV(&buf, pts); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	runBoth("topology", func(cfg Config) ([]byte, error) {
		pts, err := TopologySweep(cfg, []int{4, 8}, schemes)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteTopologyCSV(&buf, pts); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}
