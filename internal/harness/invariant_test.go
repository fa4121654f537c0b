package harness

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"switchv2p/internal/baselines"
	"switchv2p/internal/eventq"
	"switchv2p/internal/faults"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
)

// TestPacketConservationAtDrain holds every scheme to the exact identity
// (simnet.Engine.ConservationGap), on the serial engine and (the
// shard-safe ones) on two shards, healthy and under a fault schedule,
// with no packet dropped for exhausting its hop budget.
func TestPacketConservationAtDrain(t *testing.T) {
	for _, scheme := range AllSchemes {
		for _, shards := range []int{0, 2} {
			if shards > 0 && !ShardSupported(scheme) {
				continue
			}
			for _, cfg := range []Config{quickConfig(scheme), faultyConfig(scheme, 7)} {
				cfg.Shards = shards
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				c := &r.World.Engine.C
				if gap := r.World.Engine.ConservationGap(); gap != 0 || r.HostSent == 0 || c.LoopDrops != 0 {
					t.Errorf("%s shards=%d faults=%v: %d packets unaccounted for, %d loop drops: %+v",
						scheme, shards, cfg.Faults != nil, gap, c.LoopDrops, *c)
				}
			}
		}
	}
}

// TestPacketConservationMidRun samples the identity every 5 µs of
// simulated time during a serial run of every scheme, not only at drain.
// The engine counts the packets inside its own gateway and misdelivery
// delays and those a scheme holds (Engine.Hold), so the gap is 0 at
// every sample. (A sharded engine's mailboxes are not counted mid-run:
// see ConservationGap.) At drain each scheme must also have used the path
// it is there for, so that the run exercises it.
func TestPacketConservationMidRun(t *testing.T) {
	for _, scheme := range AllSchemes {
		w, err := Build(quickConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		e := w.Engine
		samples, bad := 0, 0
		var sample eventq.Event
		sample = func() {
			samples++
			if gap := e.ConservationGap(); gap != 0 {
				if bad++; bad == 1 {
					t.Errorf("%s: %d packets unaccounted for at %v", scheme, gap, e.Now())
				}
			}
			if e.Q.Len() > 0 {
				e.Q.After(5*simtime.Microsecond, sample)
			}
		}
		e.Q.At(0, sample)
		if err := w.Run(w.Cfg.Horizon); err != nil {
			t.Fatal(err)
		}
		path, used := "gateway packets", e.C.GatewayPackets
		switch s := w.Scheme.(type) {
		case *baselines.Bluebird:
			path, used = "control-plane misses", s.Misses
		case *baselines.OnDemand:
			path, used = "host-cache misses", s.HostMisses
		case *baselines.Direct:
			path, used = "delivered packets", e.C.Delivered
		}
		if gap := e.ConservationGap(); gap != 0 || e.Q.Len() != 0 || used == 0 {
			t.Errorf("%s at drain: gap %d, %d events pending, %d %s", scheme, gap, e.Q.Len(), used, path)
		}
		if samples < 20 || bad > 0 {
			t.Errorf("%s: %d of %d samples had a gap", scheme, bad, samples)
		}
	}
}

// TestBluebirdOverflowStaysOnTheBooks: a load that overflows the DP->CP
// queue loses packets there, and every one of them is in Drops — the
// count every report and sweep prints.
func TestBluebirdOverflowStaysOnTheBooks(t *testing.T) {
	cfg := quickConfig(SchemeBluebird)
	cfg.Load, cfg.MaxFlows = 0.6, 2000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &r.World.Engine.C
	cpDrops := r.World.Scheme.(*baselines.Bluebird).CPDrops
	if gap := r.World.Engine.ConservationGap(); gap != 0 || cpDrops == 0 || c.Drops < cpDrops || r.Drops != c.Drops || c.ConsumedControl != 0 {
		t.Fatalf("gap %d, CP drops %d, drops %d (report %d), consumed control %d", gap, cpDrops, c.Drops, r.Drops, c.ConsumedControl)
	}
}

// TestSystemInvariantsUnderRandomScenarios is the repo's core
// correctness property (README "Key invariant"): across random small
// topologies, random workloads, random schemes, random cache sizes and
// random mid-run VM migrations —
//
//  1. every TCP flow completes (caches are never needed for correctness),
//  2. no control packets leak to hosts,
//  3. the gateway never sees an unknown VIP,
//  4. packet conservation holds exactly at drain and at every migration
//     (ConservationGap),
//  5. no packet exhausts its hop budget (LoopDrops).
//
// The default run is the same 40 scenarios every time: a fixed generator,
// and 0.4 of the default -quickchecks of 100. The open-ended search is
// that flag, here and for TestSystemInvariantsUnderFaultSchedules:
//
//	go test -run TestSystemInvariants ./internal/harness -quickchecks 10000
//
// (the package goes before the flag, which belongs to the test binary);
// scripts/ci.sh runs it at 10000.
func TestSystemInvariantsUnderRandomScenarios(t *testing.T) {
	f := func(seed int64) bool {
		_, ok := randomScenario(t, seed, "")
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestKnownMigrationLoops runs the four generator seeds at which a flow
// used to circulate old host -> gateway -> stale cache -> old host until
// the horizon, 1.3-1.8 M misdeliveries by 1 s: gwcache at 368, 883 and
// 1972696972182598941, switchv2p at -5589833942529002226. In each the
// sender VM runs on the host the stale line points to, so its re-forward
// carries the same outer source as a fresh send; the ToR now tags on the
// hypervisor's re-forward mark instead (PROTOCOL.md step 1), and every
// seed drains with the invariants holding. Each case names its scheme
// rather than taking the one the seed draws from AllSchemes, so adding or
// removing a scheme cannot move a seed onto one that never caches.
func TestKnownMigrationLoops(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		scheme string
	}{
		{368, SchemeGwCache},
		{883, SchemeGwCache},
		{-5589833942529002226, SchemeSwitchV2P},
		{1972696972182598941, SchemeGwCache},
	} {
		w, ok := randomScenario(t, c.seed, c.scheme)
		if ran := w.Scheme.Name(); !strings.EqualFold(ran, c.scheme) {
			t.Fatalf("seed %d ran %s, want %s", c.seed, ran, c.scheme)
		}
		if !ok || w.Engine.C.Misdeliveries > 1_000 {
			t.Errorf("seed %d on %s: invariants hold=%v, %d misdeliveries: the migration loop is back",
				c.seed, w.Scheme.Name(), ok, w.Engine.C.Misdeliveries)
		}
	}
}

// randomScenario builds and runs the scenario that seed determines and
// reports whether the five invariants hold, logging the first that does
// not. A non-empty scheme replaces the one the seed draws; the draw still
// happens, so the rest of the scenario is unchanged. The world is
// returned for callers that assert more.
func randomScenario(t *testing.T, seed int64, scheme string) (*World, bool) {
	rng := rand.New(rand.NewSource(seed))

	topoCfg := topology.FT8()
	topoCfg.Pods = 2 + rng.Intn(3)*2 // 2, 4 or 6
	topoCfg.RacksPerPod = 2 + rng.Intn(2)
	topoCfg.SpinesPerPod = 2
	topoCfg.Cores = 4
	topoCfg.ServersPerRack = 2
	topoCfg.GatewayPods = []int{0}
	topoCfg.GatewaysPerPod = 2 + rng.Intn(3)

	cfg := Config{
		Topo:          topoCfg,
		VMs:           64 + rng.Intn(128),
		Scheme:        AllSchemes[rng.Intn(len(AllSchemes))],
		CacheFraction: []float64{0.05, 0.5, 2}[rng.Intn(3)],
		Seed:          seed,
		Workload:      &trace.Workload{Name: "custom"},
	}
	if scheme != "" {
		cfg.Scheme = scheme
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	// Random TCP flows.
	nFlows := 5 + rng.Intn(30)
	for i := 0; i < nFlows; i++ {
		src := w.VIPs[rng.Intn(len(w.VIPs))]
		dst := w.VIPs[rng.Intn(len(w.VIPs))]
		if src == dst {
			continue
		}
		w.Agent.AddFlow(transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.TCP,
			Bytes: 1 + rng.Intn(100_000),
			Start: simtime.Time(rng.Intn(200_000)),
		})
	}
	// Random migrations mid-run, each also a conservation sample: the
	// check only reads, so the run is the same with or without it.
	servers := w.Topo.Servers()
	var midGap int64
	var midAt simtime.Time
	for m := 0; m < 1+rng.Intn(3); m++ {
		vip := w.VIPs[rng.Intn(len(w.VIPs))]
		target := servers[rng.Intn(len(servers))]
		at := simtime.Time(rng.Intn(300_000))
		w.Engine.Q.At(at, func() {
			if gap := w.Engine.ConservationGap(); gap != 0 && midGap == 0 {
				midGap, midAt = gap, w.Engine.Now()
			}
			if cur, _ := w.Net.HostOf(vip); cur != target {
				_ = w.Net.Migrate(vip, target)
			}
		})
	}
	// Everything legitimate is over within tens of milliseconds (the
	// last flow starts by 200 µs; a flow gives up after ~60 ms of
	// retries). A queue still busy after a second holds packets that
	// circulate forever; say so with the seed instead of hanging.
	w.Engine.Run(simtime.Time(simtime.Second))
	if n := w.Engine.Q.Len(); n != 0 {
		t.Logf("seed %d scheme %s: %d events still pending after 1 s, %d misdeliveries: packets are looping",
			seed, cfg.Scheme, n, w.Engine.C.Misdeliveries)
		return w, false
	}

	s := w.Agent.Summarize()
	c := &w.Engine.C
	if s.Completed != s.Flows {
		t.Logf("seed %d scheme %s: completed %d/%d (timedout %d, drops %d)",
			seed, cfg.Scheme, s.Completed, s.Flows, s.TimedOut, c.Drops)
		return w, false
	}
	if c.StrayControlPkts != 0 {
		t.Errorf("seed %d scheme %s: %d stray control packets", seed, cfg.Scheme, c.StrayControlPkts)
		return w, false
	}
	if c.GatewayUnknownVIP != 0 {
		t.Errorf("seed %d scheme %s: %d gateway unknown VIPs", seed, cfg.Scheme, c.GatewayUnknownVIP)
		return w, false
	}
	// (Misdelivered packets are re-sends of the same packet, so they
	// do not add to HostSent.)
	if gap := w.Engine.ConservationGap(); gap != 0 {
		t.Logf("seed %d scheme %s: conservation violated: %d packets unaccounted for: %+v",
			seed, cfg.Scheme, gap, *c)
		return w, false
	}
	if midGap != 0 {
		t.Logf("seed %d scheme %s: conservation violated mid-run: %d packets unaccounted for at %v",
			seed, cfg.Scheme, midGap, midAt)
		return w, false
	}
	if c.LoopDrops != 0 {
		t.Errorf("seed %d scheme %s: %d packets exhausted their hop budget", seed, cfg.Scheme, c.LoopDrops)
		return w, false
	}
	return w, true
}

// TestSystemInvariantsUnderFaultSchedules re-runs the random-scenario
// property with a random fault schedule layered on top: switch crashes
// with recovery, gateway outages, link failures and loss windows. Under
// faults the "every flow completes" invariant necessarily weakens —
// flows caught in a long outage exhaust their retries — but nothing may
// be lost silently:
//
//  1. every flow completes or times out (none vanish),
//  2. no control packets leak to hosts,
//  3. the gateway never sees an unknown VIP,
//  4. packet conservation holds exactly (fault drops are still drops),
//  5. no packet exhausts its hop budget (LoopDrops),
//  6. the injector applied its whole schedule without errors.
func TestSystemInvariantsUnderFaultSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		topoCfg := topology.FT8()
		topoCfg.Pods = 2 + rng.Intn(3)*2
		topoCfg.RacksPerPod = 2 + rng.Intn(2)
		topoCfg.SpinesPerPod = 2
		topoCfg.Cores = 4
		topoCfg.ServersPerRack = 2
		topoCfg.GatewayPods = []int{0}
		topoCfg.GatewaysPerPod = 2 + rng.Intn(3)

		topo, err := topology.New(topoCfg)
		if err != nil {
			t.Errorf("seed %d: topology: %v", seed, err)
			return false
		}

		// Random fault schedule. Every fault recovers before 400µs so the
		// drain phase runs on a healthy network and stalled flows get a
		// chance to finish (or exhaust their retries — both are legal).
		var schedule []faults.Event
		window := func() (simtime.Time, simtime.Time) {
			a := simtime.Time(rng.Intn(200_000))
			return a, a + simtime.Time(1+rng.Intn(200_000))
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			sw := int32(rng.Intn(len(topo.Switches)))
			at, rec := window()
			schedule = append(schedule,
				faults.Event{At: at, Kind: faults.SwitchFail, Switch: sw},
				faults.Event{At: rec, Kind: faults.SwitchRecover, Switch: sw})
		}
		gws := topo.Gateways()
		if rng.Intn(2) == 0 && len(gws) > 1 {
			g := gws[rng.Intn(len(gws))]
			at, rec := window()
			schedule = append(schedule,
				faults.Event{At: at, Kind: faults.GatewayOutage, Gateway: g},
				faults.Event{At: rec, Kind: faults.GatewayRecover, Gateway: g})
		}
		if rng.Intn(2) == 0 {
			edge := topo.Edges[rng.Intn(len(topo.Edges))]
			at, rec := window()
			schedule = append(schedule,
				faults.Event{At: at, Kind: faults.LinkDown, A: edge.A, B: edge.B},
				faults.Event{At: rec, Kind: faults.LinkUp, A: edge.A, B: edge.B})
		}
		if rng.Intn(2) == 0 {
			edge := topo.Edges[rng.Intn(len(topo.Edges))]
			at, rec := window()
			schedule = append(schedule,
				faults.Event{At: at, Kind: faults.LossStart, A: edge.A, B: edge.B,
					LossRate: []float64{0.05, 0.5, 1}[rng.Intn(3)]},
				faults.Event{At: rec, Kind: faults.LossEnd, A: edge.A, B: edge.B})
		}

		cfg := Config{
			Topo:          topoCfg,
			VMs:           64 + rng.Intn(128),
			Scheme:        AllSchemes[rng.Intn(len(AllSchemes))],
			CacheFraction: []float64{0.05, 0.5, 2}[rng.Intn(3)],
			Seed:          seed,
			Workload:      &trace.Workload{Name: "custom"},
			Faults:        &faults.Config{Schedule: schedule, LossSeed: seed},
		}
		w, err := Build(cfg)
		if err != nil {
			t.Errorf("seed %d: build: %v", seed, err)
			return false
		}
		nFlows := 5 + rng.Intn(30)
		for i := 0; i < nFlows; i++ {
			src := w.VIPs[rng.Intn(len(w.VIPs))]
			dst := w.VIPs[rng.Intn(len(w.VIPs))]
			if src == dst {
				continue
			}
			w.Agent.AddFlow(transport.FlowSpec{
				ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.TCP,
				Bytes: 1 + rng.Intn(100_000),
				Start: simtime.Time(rng.Intn(200_000)),
			})
		}
		w.Engine.Run(simtime.Never)

		s := w.Agent.Summarize()
		c := &w.Engine.C
		if s.Completed+s.TimedOut != s.Flows {
			t.Errorf("seed %d scheme %s: completed %d + timedout %d != flows %d",
				seed, cfg.Scheme, s.Completed, s.TimedOut, s.Flows)
			return false
		}
		if c.StrayControlPkts != 0 {
			t.Errorf("seed %d scheme %s: %d stray control packets under faults",
				seed, cfg.Scheme, c.StrayControlPkts)
			return false
		}
		if c.GatewayUnknownVIP != 0 {
			t.Errorf("seed %d scheme %s: %d gateway unknown VIPs under faults",
				seed, cfg.Scheme, c.GatewayUnknownVIP)
			return false
		}
		if gap := w.Engine.ConservationGap(); gap != 0 {
			t.Errorf("seed %d scheme %s: conservation violated: %d packets unaccounted for: %+v",
				seed, cfg.Scheme, gap, *c)
			return false
		}
		if c.LoopDrops != 0 {
			t.Errorf("seed %d scheme %s: %d packets exhausted their hop budget under faults",
				seed, cfg.Scheme, c.LoopDrops)
			return false
		}
		if err := w.Injector.Err(); err != nil {
			t.Errorf("seed %d scheme %s: injector: %v", seed, cfg.Scheme, err)
			return false
		}
		if len(w.Injector.Applied) != len(schedule) {
			t.Errorf("seed %d scheme %s: applied %d of %d fault events",
				seed, cfg.Scheme, len(w.Injector.Applied), len(schedule))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
