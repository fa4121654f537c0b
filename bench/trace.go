package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"switchv2p/internal/core"
	"switchv2p/internal/eventq"
	"switchv2p/internal/harness"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
	"switchv2p/internal/vnet"
)

// span is one timed interval of the traced phase: a call from bench/ into
// a layer's public functions. Spans stay in memory and are written with
// the results (-out).
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns its duration in seconds.
func (l *spanLog) do(name, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartS: start.Sub(l.t0).Seconds(), DurS: d})
	return d
}

// stageNames are harness.Build's stages in Build's order, then the run
// and the report.
var stageNames = []string{
	"topology.new_s", "vnet.place_s", "harness.build_scheme_s", "simnet.new_s",
	"trace.gen_s", "transport.add_flows_s", "harness.report_s",
}

// replayBuild assembles the World the way harness.Build does, through the
// same public constructors in the same order, with a span around each
// stage; then runs it and times World.Report. The digest of its report
// must equal the measured runs' digest, which proves the replay built the
// same simulation.
func replayBuild(cfg harness.Config, log *spanLog) (world *harness.World, stages map[string]float64, digest string, err error) {
	cfg = cfg.WithDefaults()
	stages = map[string]float64{}
	stage := func(name string, fn func()) { stages[name] = log.do(name, "replay", fn) }

	var topo *topology.Topology
	stage("topology.new_s", func() { topo, err = topology.New(cfg.Topo) })
	if err != nil {
		return nil, nil, "", err
	}
	var net *vnet.Net
	var vips []netaddr.VIP
	stage("vnet.place_s", func() {
		net = vnet.New(topo)
		vips = net.PlaceUniform(cfg.VMs, rand.New(rand.NewSource(cfg.Seed)))
	})
	var scheme simnet.Scheme
	stage("harness.build_scheme_s", func() { scheme, err = harness.BuildScheme(cfg, topo) })
	if err != nil {
		return nil, nil, "", err
	}
	var engine *simnet.Engine
	var agent *transport.Agent
	stage("simnet.new_s", func() {
		engine = simnet.New(topo, net, scheme, simnet.DefaultConfig())
		if cfg.Shards > 0 {
			engine.EnableSharding(cfg.Shards)
		}
		agent = transport.New(engine, transport.DefaultConfig())
	})
	var flows *trace.Workload
	stage("trace.gen_s", func() { flows, err = trace.Generators[cfg.TraceName](traceConfig(cfg, vips, len(topo.Servers()))) })
	if err != nil {
		return nil, nil, "", err
	}
	stage("transport.add_flows_s", func() {
		for _, f := range flows.Flows {
			agent.AddFlow(f)
		}
	})
	world = &harness.World{Topo: topo, Net: net, Engine: engine, Agent: agent, Scheme: scheme, VIPs: vips, Cfg: cfg}
	log.do("engine.run", "replay", func() { engine.Run(cfg.Horizon) })
	var rep *harness.Report
	stage("harness.report_s", func() { rep = world.Report() })
	return world, stages, digestReport(rep), nil
}

// traceConfig is the trace.Config harness.Build derives from cfg.
func traceConfig(cfg harness.Config, vips []netaddr.VIP, servers int) trace.Config {
	return trace.Config{
		VIPs: vips, Servers: servers, HostLinkBps: cfg.Topo.HostLinkBps,
		Load: cfg.Load, Duration: cfg.Duration, MaxFlows: cfg.MaxFlows, Seed: cfg.Seed,
	}
}

// kernels are the micro-kernel results: ns and allocations per operation
// of single public functions, sized from the workload just measured.
type kernels struct {
	holdNs, holdAllocs               float64
	lookupNs, insertNs, invalidateNs float64
	genFlowsPerS                     float64
}

type nopEvent struct{}

func (*nopEvent) Fire() {}

// kernelSink keeps the compiler from discarding the kernels' results.
var kernelSink int

// eventqHold is the classic hold model: with the queue pre-filled to the
// workload's peak pending-event count, pop the earliest event and
// schedule one pooled Timed record a random interval ahead.
func eventqHold(pending, ops int, seed int64) (nsPerOp, allocsPerOp float64) {
	const horizon = int64(100 * simtime.Microsecond)
	rng := rand.New(rand.NewSource(seed))
	delays := make([]simtime.Duration, 1<<12)
	for i := range delays {
		delays[i] = simtime.Duration(rng.Int63n(horizon))
	}
	var q eventq.Queue
	ev := &nopEvent{}
	for i := 0; i < pending; i++ {
		q.AtTimed(simtime.Time(delays[i%len(delays)]), ev)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		q.Step()
		q.AtTimed(q.Now().Add(delays[i%len(delays)]), ev)
	}
	ns := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&after)
	kernelSink += q.Len()
	return ns / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// cacheKernels times core.Cache's three operations on a cache with the
// workload's per-switch line count and keys drawn from the workload's
// own VIPs, so working set versus cache size matches the run.
func cacheKernels(world *harness.World, ops int, seed int64) (lookupNs, insertNs, invalidateNs float64) {
	cfg := world.Cfg
	lines := int(cfg.CacheFraction*float64(cfg.VMs)) / len(world.Topo.Switches)
	if lines < 1 {
		lines = 1
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]netaddr.Mapping, 1<<14)
	for i := range keys {
		vip := world.VIPs[rng.Intn(len(world.VIPs))]
		pip, _ := world.Net.Lookup(vip)
		keys[i] = netaddr.Mapping{VIP: vip, PIP: pip}
	}
	cache := core.NewCache(lines)
	perOp := func(n int, fn func(m netaddr.Mapping)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(keys[i%len(keys)])
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	insert := func(m netaddr.Mapping) {
		if cache.Insert(m).New {
			kernelSink++
		}
	}
	insertNs = perOp(ops, insert)
	lookupNs = perOp(ops, func(m netaddr.Mapping) {
		if _, hit, _ := cache.Lookup(m.VIP); hit {
			kernelSink++
		}
	})
	// An invalidation empties its line, so each timed pass over the keys
	// follows an untimed refill.
	passes := ops / len(keys)
	if passes < 1 {
		passes = 1
	}
	for p := 0; p < passes; p++ {
		perOp(len(keys), insert)
		invalidateNs += perOp(len(keys), func(m netaddr.Mapping) {
			if cache.Invalidate(m.VIP, m.PIP) {
				kernelSink++
			}
		})
	}
	return lookupNs, insertNs, invalidateNs / float64(passes)
}

// traceGenRate times the workload's trace generator alone.
func traceGenRate(world *harness.World, minTime time.Duration) (flowsPerS float64, err error) {
	cfg := world.Cfg
	tc := traceConfig(cfg, world.VIPs, len(world.Topo.Servers()))
	gen := trace.Generators[cfg.TraceName]
	if gen == nil {
		return 0, fmt.Errorf("unknown trace %q", cfg.TraceName)
	}
	flows := 0
	t0 := time.Now()
	for flows == 0 || time.Since(t0) < minTime {
		w, err := gen(tc)
		if err != nil {
			return 0, err
		}
		flows += len(w.Flows)
	}
	return float64(flows) / time.Since(t0).Seconds(), nil
}

// runKernels runs every micro-kernel for the world of a measured workload.
func runKernels(world *harness.World, pendingMax, ops int, genTime time.Duration, seed int64, log *spanLog) (k kernels, err error) {
	if pendingMax < 1 {
		pendingMax = 1
	}
	log.do("kernel.eventq_hold", "kernels", func() { k.holdNs, k.holdAllocs = eventqHold(pendingMax, ops, seed) })
	log.do("kernel.core_cache", "kernels", func() { k.lookupNs, k.insertNs, k.invalidateNs = cacheKernels(world, ops, seed) })
	log.do("kernel.trace_gen", "kernels", func() { k.genFlowsPerS, err = traceGenRate(world, genTime) })
	return k, err
}
