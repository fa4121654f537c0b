package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"switchv2p/internal/harness"
	"switchv2p/internal/scenario"
	"switchv2p/internal/telemetry"
)

// runResult is everything one repetition measured. It holds plain
// numbers only: keeping a Report (and through it the World) alive would
// inflate the next repetition's live_heap_mb.
type runResult struct {
	runS       float64
	liveHeapMB float64
	mem        memDelta
	sim        simStats
	digest     string
	profile    []byte // gzipped profile.proto of the run (traced runs only)
}

// memDelta is the host allocator's activity across Engine.Run + Report.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

func memSince(a, b *runtime.MemStats) memDelta {
	return memDelta{
		mallocs:   b.Mallocs - a.Mallocs,
		bytes:     b.TotalAlloc - a.TotalAlloc,
		gcCycles:  b.NumGC - a.NumGC,
		gcPauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// simStats are the simulated outcomes and exact counts of a run.
type simStats struct {
	flows, completed, timedOut int
	hostSent, gatewayPkts      int64
	hitRate, avgStretch        float64
	firstPktP99Us, fctP99Us    float64
	retransmits                int64
	drops, faultDrops          int64
	rerouted                   int64
	learningPkts               int64
	invalidationPkts           int64
	misdeliveries              int64
	faultEvents                int

	coreLookups, coreHits, coreEvictions, coreInvalidated int64

	// Traced runs only (EngineProfile).
	events       int64
	pendingMax   int
	shardEvents  []int64
	shardDomains int

	// production-day only.
	phasesSLOPass int
}

// failed counts flows that timed out or never completed.
func (s *simStats) failed() int { return s.flows - s.completed }

func statsOf(r *harness.Report) simStats {
	s := simStats{
		flows: r.Summary.Flows, completed: r.Summary.Completed, timedOut: r.Summary.TimedOut,
		hostSent: r.HostSent, gatewayPkts: r.GatewayPackets,
		hitRate: r.HitRate, avgStretch: r.AvgStretch,
		firstPktP99Us: r.Summary.P99FirstPacket.Micros(), fctP99Us: r.Summary.P99FCT.Micros(),
		retransmits: r.Summary.Retransmits,
		drops:       r.Drops, faultDrops: r.FaultDrops, rerouted: r.Rerouted,
		learningPkts: r.LearningPkts, invalidationPkts: r.InvalidationPkts,
		misdeliveries: r.Misdeliveries, faultEvents: r.FaultEvents,
		shardDomains: r.World.Engine.ShardDomains(),
	}
	if c := r.CoreStats; c != nil {
		s.coreLookups, s.coreHits, s.coreInvalidated = c.Lookups, c.Hits, c.EntriesInvalidated
		for _, e := range c.EvictionsByLayer {
			s.coreEvictions += e
		}
	}
	if r.Telemetry != nil {
		p := &r.Telemetry.Profile
		s.events, s.pendingMax = p.Events, p.HeapHighWater
		s.shardEvents = append([]int64(nil), p.ShardEvents...)
	}
	return s
}

// check applies the output checks every repetition must pass.
func check(r *harness.Report) error {
	s, c := &r.Summary, &r.World.Engine.C
	switch {
	case s.Completed+s.TimedOut != s.Flows:
		return fmt.Errorf("flow accounting: completed %d + timed out %d != flows %d", s.Completed, s.TimedOut, s.Flows)
	case c.Delivered+c.Drops < c.HostSent:
		return fmt.Errorf("packet conservation: delivered %d + drops %d < host-sent %d", c.Delivered, c.Drops, c.HostSent)
	case c.StrayControlPkts != 0:
		return fmt.Errorf("%d control packets reached a host", c.StrayControlPkts)
	case c.GatewayUnknownVIP != 0:
		return fmt.Errorf("%d gateway lookups failed", c.GatewayUnknownVIP)
	}
	return nil
}

// digestReport hashes a fixed rendering of every simulated field of the
// report, so two runs agree on the digest only if they agree on all of
// them. %v renders a float64 with the shortest digits that round-trip.
func digestReport(r *harness.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%+v|%v|%d|%d|%v|%d|%v|%v|%d|%d|%d|%d|%d|%v|%d|%d|%d|%d|",
		r.Scheme, r.Summary, r.HitRate, r.GatewayPackets, r.HostSent,
		r.AvgStretch, r.TotalSwitchBytes, r.PerPodBytes, r.PerSwitchBytes,
		r.Misdeliveries, r.LastMisdelivered, r.Drops, r.LearningPkts, r.InvalidationPkts,
		r.AvgPacketLatency, r.FaultDrops, r.LossDrops, r.Rerouted, r.FaultEvents)
	if r.CoreStats != nil {
		fmt.Fprintf(h, "%+v", *r.CoreStats)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// setUp does the work that precedes the measured run and times it:
// harness.Build, or for production-day the planning (ProductionDay +
// Validate) plus one build of the scenario's base world. scenario.Run is
// one public call that builds its own World, so it repeats that build
// inside the measured run; the base world built here only stands in for it
// in setup_s (planning alone takes microseconds).
func (w workload) setUp(seed int64, tel *telemetry.Options) (world *harness.World, spec scenario.Spec, secs float64, err error) {
	runtime.GC()
	t0 := time.Now()
	if w.day != nil {
		spec = w.spec(seed)
		spec.Base.Telemetry = tel
		if err = spec.Validate(); err == nil {
			world, err = harness.Build(spec.Base)
		}
	} else {
		cfg := w.base
		cfg.Seed = seed
		cfg.Telemetry = tel
		world, err = harness.Build(cfg)
	}
	return world, spec, time.Since(t0).Seconds(), err
}

// setUpTimes sets the workload up repeatedly, back to back, and returns
// each time: at least 3 set-ups, then more until 20 are done or a second
// has passed. Back to back the caches stay warm, which makes a
// millisecond-scale build far steadier than one timed after a 2 s run.
func (w workload) setUpTimes(seed int64) ([]float64, error) {
	var times []float64
	for start := time.Now(); len(times) < 3 || (len(times) < 20 && time.Since(start) < time.Second); {
		_, _, secs, err := w.setUp(seed, nil)
		if err != nil {
			return nil, err
		}
		times = append(times, secs)
	}
	return times, nil
}

// run executes one repetition on a fresh World. traced attaches the
// profile-only telemetry hooks and wraps the run in a CPU profile.
func (w workload) run(seed int64, traced bool) (*runResult, error) {
	var tel *telemetry.Options
	if traced {
		tel = &telemetry.Options{ProfileOnly: true}
	}
	world, spec, _, err := w.setUp(seed, tel)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	var final *harness.Report
	var day *scenario.Report
	if w.day != nil {
		day, err = scenario.Run(spec)
		if err == nil {
			final = day.Final
		}
	} else {
		world.Engine.Run(world.Cfg.Horizon)
		final = world.Report()
	}
	res.runS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	if err != nil {
		return nil, err
	}
	if err := check(final); err != nil {
		return nil, err
	}
	res.mem = memSince(&before, &after)
	res.sim = statsOf(final)
	if day != nil {
		for i := range day.Phases {
			if day.Phases[i].SLOPass {
				res.sim.phasesSLOPass++
			}
		}
		var js bytes.Buffer
		if err := day.WriteJSON(&js); err != nil {
			return nil, err
		}
		res.digest = fmt.Sprintf("%x", sha256.Sum256(js.Bytes()))
	} else {
		res.digest = digestReport(final)
	}

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.liveHeapMB = float64(live.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(final) // the finished World stays reachable across the GC above
	return res, nil
}
