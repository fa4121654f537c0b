package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"switchv2p/internal/core"
	"switchv2p/internal/faults"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
)

// faultyConfig layers a full fault scenario — explicit switch failure,
// gateway outage, loss window, plus a seeded random switch-failure
// model — over the standard quick config.
func faultyConfig(scheme string, faultSeed int64) Config {
	cfg := quickConfig(scheme)
	topo, err := topology.New(cfg.Topo)
	if err != nil {
		panic(err)
	}
	gw := topo.Gateways()[0]
	host := topo.Servers()[0]
	cfg.Faults = &faults.Config{
		Schedule: []faults.Event{
			{At: simtime.Time(40 * simtime.Microsecond), Kind: faults.SwitchFail, Switch: 1},
			{At: simtime.Time(90 * simtime.Microsecond), Kind: faults.SwitchRecover, Switch: 1},
			{At: simtime.Time(30 * simtime.Microsecond), Kind: faults.GatewayOutage, Gateway: gw},
			{At: simtime.Time(120 * simtime.Microsecond), Kind: faults.GatewayRecover, Gateway: gw},
			{At: simtime.Time(50 * simtime.Microsecond), Kind: faults.LossStart,
				A: topology.HostRef(host), B: topology.SwitchRef(topo.Hosts[host].ToR), LossRate: 0.3},
			{At: simtime.Time(100 * simtime.Microsecond), Kind: faults.LossEnd,
				A: topology.HostRef(host), B: topology.SwitchRef(topo.Hosts[host].ToR)},
		},
		Random: &faults.RandomModel{
			Seed:    faultSeed,
			MTBF:    2 * simtime.Millisecond,
			MTTR:    50 * simtime.Microsecond,
			Horizon: simtime.Time(0).Add(cfg.Duration),
		},
		LossSeed: faultSeed,
	}
	return cfg
}

// TestFaultInjectionDeterminism is the regression guard for the
// subsystem's core promise: two runs with the same workload seed and the
// same fault config are byte-identical — same report, same fault
// timeline, same exported telemetry document.
func TestFaultInjectionDeterminism(t *testing.T) {
	for _, scheme := range []string{SchemeSwitchV2P, SchemeNoCache} {
		run := func() (*Report, string, string) {
			cfg := faultyConfig(scheme, 7)
			cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The comparable document: sampled timeline plus counter and
			// gauge readings. The engine profile is wall-clock and so is
			// legitimately different run to run.
			var timeline, doc bytes.Buffer
			if err := r.Telemetry.WriteFaultsCSV(&timeline); err != nil {
				t.Fatal(err)
			}
			if err := r.Telemetry.WriteCSV(&doc); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&doc, "%+v\n%+v\n", r.Telemetry.Counters(), r.Telemetry.Gauges())
			return r, timeline.String(), doc.String()
		}
		r1, tl1, doc1 := run()
		r2, tl2, doc2 := run()

		if r1.FaultEvents == 0 {
			t.Fatalf("%s: no fault events applied", scheme)
		}
		if r1.FaultDrops+r1.LossDrops == 0 {
			t.Fatalf("%s: fault scenario dropped nothing", scheme)
		}
		if got, want := reportFingerprint(r2), reportFingerprint(r1); got != want {
			t.Errorf("%s: reports differ across identical fault runs\nfirst:  %s\nsecond: %s", scheme, want, got)
		}
		if tl1 != tl2 {
			t.Errorf("%s: fault timelines differ across identical fault runs\nfirst:\n%s\nsecond:\n%s", scheme, tl1, tl2)
		}
		if doc1 != doc2 {
			t.Errorf("%s: telemetry documents differ across identical fault runs", scheme)
		}
		if len(tl1) == 0 {
			t.Errorf("%s: empty fault timeline", scheme)
		}
		// Each record is stamped with the instant its event applied.
		if !strings.Contains(tl1, "\n40.000000,SwitchFail,switch 1\n") {
			t.Errorf("%s: fault timeline lacks the 40 µs SwitchFail of switch 1:\n%s", scheme, tl1)
		}

		// A different fault seed must change the scenario (different
		// random failure times), or the seed is not actually wired in.
		cfg := faultyConfig(scheme, 8)
		cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
		r3, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tl3 bytes.Buffer
		if err := r3.Telemetry.WriteFaultsCSV(&tl3); err != nil {
			t.Fatal(err)
		}
		if tl3.String() == tl1 {
			t.Errorf("%s: fault timeline identical across different fault seeds", scheme)
		}
	}
}

// TestSwitchFailureFlushesAndRelearns checks the cache-loss semantics
// end to end: when a ToR that has learned mappings crashes, its cache
// must be empty, and after recovery it must re-learn from passing
// traffic without any control-plane help.
func TestSwitchFailureFlushesAndRelearns(t *testing.T) {
	// Scout run: find a ToR with learned state at 100µs.
	scout, err := Build(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	scout.Engine.Run(simtime.Time(100 * simtime.Microsecond))
	scheme := scout.Scheme.(*core.Scheme)
	victim := int32(-1)
	for _, sw := range scout.Topo.Switches {
		if sw.Role.IsToR() && scheme.Cache(sw.Idx).Used() > 0 {
			victim = sw.Idx
			break
		}
	}
	if victim < 0 {
		t.Fatal("no ToR learned anything by 100µs")
	}

	// Real run: same seed, crash that ToR at 100µs, recover at 150µs.
	cfg := quickConfig(SchemeSwitchV2P)
	cfg.Faults = &faults.Config{Schedule: []faults.Event{
		{At: simtime.Time(100 * simtime.Microsecond), Kind: faults.SwitchFail, Switch: victim},
		{At: simtime.Time(150 * simtime.Microsecond), Kind: faults.SwitchRecover, Switch: victim},
	}}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run to just past the failure: the cache must be flushed.
	w.Engine.Run(simtime.Time(110 * simtime.Microsecond))
	cache := w.Scheme.(*core.Scheme).Cache(victim)
	if got := cache.Used(); got != 0 {
		t.Fatalf("victim ToR still holds %d mappings right after the crash", got)
	}
	if !w.Engine.SwitchFaulted(victim) {
		t.Fatal("victim not marked failed")
	}
	// Drain: the recovered ToR must have re-learned from traffic.
	w.Engine.Run(simtime.Never)
	if err := w.Injector.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Engine.SwitchFaulted(victim) {
		t.Fatal("victim still marked failed after recovery")
	}
	if got := cache.Used(); got == 0 {
		t.Fatal("recovered ToR re-learned nothing")
	}
	c := &w.Engine.C
	if c.FaultDrops == 0 {
		t.Fatal("switch failure dropped nothing")
	}
	if c.Delivered+c.Drops < c.HostSent {
		t.Fatalf("conservation violated: delivered %d + drops %d < sent %d",
			c.Delivered, c.Drops, c.HostSent)
	}
}
