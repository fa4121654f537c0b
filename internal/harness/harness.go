// Package harness assembles full experiments: it builds a topology,
// places VMs, generates a workload, constructs the scheme under test,
// runs the simulation, and collects a Report with the metrics the
// paper's tables and figures use. The sweep helpers regenerate each
// figure's series.
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"switchv2p/internal/baselines"
	"switchv2p/internal/core"
	"switchv2p/internal/faults"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
	"switchv2p/internal/vnet"
)

// Scheme names accepted by Config.Scheme.
const (
	SchemeSwitchV2P     = "switchv2p"
	SchemeNoCache       = "nocache"
	SchemeLocalLearning = "locallearning"
	SchemeGwCache       = "gwcache"
	SchemeBluebird      = "bluebird"
	SchemeOnDemand      = "ondemand"
	SchemeDirect        = "direct"
	SchemeController    = "controller"
)

// schemeArgs is what a scheme constructor sizes itself from: the run
// config, the topology, and Config.CacheFraction turned into entries —
// the aggregate budget, its even per-switch share, and the per-switch
// sizing that spreads budgets smaller than the switch count one entry
// per switch over the first (total mod N) switches instead of letting
// them vanish to integer division.
type schemeArgs struct {
	cfg              Config
	topo             *topology.Topology
	total, perSwitch int
	spread           func(sw topology.Switch) int
}

// schemes is the scheme table, in AllSchemes order: the one place a
// scheme's name, shard safety and constructor are stated. shardSafe is
// audited by hand: a scheme qualifies only if every per-event mutation
// it performs is confined to the event's own shard domain or routed
// through per-shard slots (simnet.ShardAware).
var schemes = []struct {
	name      string
	shardSafe bool
	build     func(a schemeArgs) simnet.Scheme
}{
	{SchemeSwitchV2P, true, buildSwitchV2P},
	{SchemeNoCache, true, func(schemeArgs) simnet.Scheme { return baselines.NewNoCache() }},
	{SchemeLocalLearning, false, func(a schemeArgs) simnet.Scheme {
		return baselines.NewLocalLearning(a.topo, a.perSwitch)
	}},
	{SchemeGwCache, true, func(a schemeArgs) simnet.Scheme {
		return baselines.NewGwCache(a.topo, a.total)
	}},
	{SchemeBluebird, false, func(a schemeArgs) simnet.Scheme {
		return baselines.NewBluebird(a.topo, a.total/len(a.topo.ToRs()), baselines.DefaultBluebirdParams())
	}},
	{SchemeOnDemand, false, func(a schemeArgs) simnet.Scheme {
		return baselines.NewOnDemand(a.topo, 40*simtime.Microsecond)
	}},
	{SchemeDirect, true, func(schemeArgs) simnet.Scheme { return baselines.NewDirect() }},
	{SchemeController, false, func(a schemeArgs) simnet.Scheme {
		return baselines.NewController(a.topo, a.perSwitch, a.cfg.ControllerInterval)
	}},
}

// AllSchemes lists every supported scheme name.
var AllSchemes = schemeNames(false)

// schemeNames lists the table's names in order, optionally only the
// shard-safe ones.
func schemeNames(shardSafeOnly bool) []string {
	var names []string
	for _, s := range schemes {
		if s.shardSafe || !shardSafeOnly {
			names = append(names, s.name)
		}
	}
	return names
}

// Config describes one simulation run.
type Config struct {
	Topo   topology.Config
	VMs    int // VMs placed uniformly (default 1024; negative is an error)
	Scheme string

	// TraceName selects a generator from internal/trace; Workload, when
	// non-nil, is used directly instead.
	TraceName string
	Workload  *trace.Workload

	Load     float64          // offered load fraction (default 0.30)
	Duration simtime.Duration // traced interval (default 1 ms)
	MaxFlows int              // cap on generated flows (0 = uncapped)

	// CacheFraction sizes the aggregate in-network cache relative to the
	// VIP address-space size (the paper's x-axis: 0.01 .. 1500; default
	// 0.5). Negative, NaN and infinite values are errors.
	CacheFraction float64

	// SwitchV2P toggles, applied on top of core.DefaultOptions (cache
	// sizing is always computed from CacheFraction).
	V2PLearningPackets *bool
	V2PSpillover       *bool
	V2PPromotion       *bool
	V2PInvalidation    *bool
	V2PTimestampVector *bool
	// V2PToROnly gives the whole aggregate budget to the ToR layer
	// (core.AllocToROnly) instead of splitting it evenly over every
	// switch (§4 "Heterogeneous memory allocation").
	V2PToROnly bool

	// ControllerInterval is the Controller baseline's refresh period.
	ControllerInterval simtime.Duration

	// ActiveGateways restricts the gateway pool (Fig. 9); 0 = all.
	ActiveGateways int

	// Horizon stops the simulation at a fixed time (0 = run to drain).
	Horizon simtime.Time

	// Telemetry enables the observability subsystem (internal/telemetry):
	// engine profiling hooks plus an event-driven sampler that records
	// per-switch cache occupancy/hit-rate, queue depth/drop, gateway
	// load and protocol-rate time-series into Report.Telemetry.
	// Strictly opt-in: nil leaves the simulation byte-identical to an
	// uninstrumented run.
	Telemetry *telemetry.Options

	// Faults configures deterministic fault injection (internal/faults):
	// an explicit schedule of link/switch/gateway failures and loss
	// windows, a seeded random switch-failure model, or both. nil (or an
	// empty config) injects nothing and leaves the hot paths on their
	// healthy fast branches.
	Faults *faults.Config

	// Shards enables the sharded deterministic engine with that many
	// worker goroutines over the topology's pod/core domains (0 = the
	// classic serial engine; negative is an error). Results are
	// byte-identical at every shard count and to the engine's serial
	// oracle (simnet.Engine.ShardOracle) — the worker count only changes
	// how domains are claimed, never what they compute — but not to the
	// serial engine, whose global event tie-breaking differs (see
	// DESIGN.md). Only schemes free of global mutable per-event state
	// support sharding (ShardSupported).
	Shards int

	Seed int64
}

// ShardSupported reports whether the named scheme can run on the
// sharded deterministic engine (Config.Shards).
func ShardSupported(scheme string) bool {
	for _, s := range schemes {
		if s.name == scheme {
			return s.shardSafe
		}
	}
	return false
}

// WithDefaults returns the config with every zero value filled in the
// way Build would fill it. Exported for drivers (internal/scenario)
// that must know the effective topology/trace/seed before building.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Topo.Pods == 0 {
		c.Topo = topology.FT8()
	}
	if c.VMs == 0 {
		c.VMs = 1024
	}
	if c.Scheme == "" {
		c.Scheme = SchemeSwitchV2P
	}
	if c.TraceName == "" && c.Workload == nil {
		c.TraceName = "hadoop"
	}
	if c.Load == 0 {
		c.Load = 0.30
	}
	if c.Duration == 0 {
		c.Duration = simtime.Millisecond
	}
	if c.CacheFraction == 0 {
		c.CacheFraction = 0.5
	}
	if c.ControllerInterval == 0 {
		c.ControllerInterval = 150 * simtime.Microsecond
	}
	if c.Horizon == 0 {
		c.Horizon = simtime.Never
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is the outcome of one run.
type Report struct {
	Scheme  string
	Summary transport.Summary

	// HitRate is the paper's definition: the fraction of sent packets
	// that did not reach a translation gateway.
	HitRate        float64
	GatewayPackets int64
	HostSent       int64

	AvgStretch       float64
	TotalSwitchBytes int64
	PerPodBytes      []int64 // bytes processed by each pod's switches
	PerSwitchBytes   []int64 // indexed by switch

	Misdeliveries    int64
	LastMisdelivered simtime.Time
	Drops            int64
	LearningPkts     int64
	InvalidationPkts int64
	AvgPacketLatency simtime.Duration

	// Fault-injection outcomes (all zero without Config.Faults).
	FaultDrops  int64 // packets dropped at downed links/switches/gateways
	LossDrops   int64 // packets dropped by probabilistic loss windows
	Rerouted    int64 // packets steered off their hash-preferred ECMP hop
	FaultEvents int   // fault events applied during the run

	// CoreStats is present for every scheme that caches in the network:
	// SwitchV2P and the baseline that embeds it (gwcache).
	// Table 5 attribution.
	CoreStats *core.Stats

	// Telemetry holds the run's collected observability data when
	// Config.Telemetry was set; nil otherwise.
	Telemetry *telemetry.Collector

	// World exposes the built simulation for further inspection or
	// additional phases (e.g. the migration experiment).
	World *World
}

// World is the assembled simulation.
type World struct {
	Topo   *topology.Topology
	Net    *vnet.Net
	Engine *simnet.Engine
	Agent  *transport.Agent
	Scheme simnet.Scheme
	VIPs   []netaddr.VIP
	Cfg    Config

	// Telem is the attached telemetry collector (nil when disabled).
	Telem *telemetry.Collector

	// Injector is the attached fault injector (nil when Config.Faults
	// is unset); inspect Injector.Applied after a run. World.Run returns
	// its Err.
	Injector *faults.Injector
}

// CoreStats returns the live cache statistics of a scheme that caches in
// the network — SwitchV2P and GwCache, which embeds *core.Scheme —
// through the promoted accessor, and nil for the rest.
func (w *World) CoreStats() *core.Stats {
	if s, ok := w.Scheme.(interface{ Stats() *core.Stats }); ok {
		return s.Stats()
	}
	return nil
}

// Run runs the simulation to the horizon and reports what a finished run
// can have failed at: a fault event that did not apply (the injector only
// collects those).
func (w *World) Run(horizon simtime.Time) error {
	w.Engine.Run(horizon)
	if w.Injector != nil {
		return w.Injector.Err()
	}
	return nil
}

// totalCacheEntries converts the cache fraction into aggregate entries.
func totalCacheEntries(fraction float64, vms int) int {
	return int(fraction * float64(vms))
}

// BuildScheme constructs the named scheme sized for the topology.
func BuildScheme(cfg Config, topo *topology.Topology) (simnet.Scheme, error) {
	total := totalCacheEntries(cfg.CacheFraction, cfg.VMs)
	nSwitches := len(topo.Switches)
	perSwitch := total / nSwitches
	spread := func(sw topology.Switch) int {
		lines := perSwitch
		if int(sw.Idx) < total%nSwitches {
			lines++
		}
		return lines
	}
	for _, s := range schemes {
		if s.name == cfg.Scheme {
			return s.build(schemeArgs{cfg, topo, total, perSwitch, spread}), nil
		}
	}
	return nil, fmt.Errorf("harness: unknown scheme %q", cfg.Scheme)
}

// buildSwitchV2P applies the Config's V2P toggles on top of the default
// options sized by the budget.
func buildSwitchV2P(a schemeArgs) simnet.Scheme {
	cfg, opts := a.cfg, core.DefaultOptions(a.perSwitch)
	opts.SizeFor = a.spread
	opts.Seed = cfg.Seed
	if cfg.V2PLearningPackets != nil {
		opts.LearningPackets = *cfg.V2PLearningPackets
	}
	if cfg.V2PSpillover != nil {
		opts.Spillover = *cfg.V2PSpillover
	}
	if cfg.V2PPromotion != nil {
		opts.Promotion = *cfg.V2PPromotion
	}
	if cfg.V2PInvalidation != nil {
		opts.Invalidation = *cfg.V2PInvalidation
	}
	if cfg.V2PTimestampVector != nil {
		opts.TimestampVector = *cfg.V2PTimestampVector
	}
	if cfg.V2PToROnly {
		opts.SizeFor = core.AllocToROnly(a.topo, a.total)
	}
	return core.New(a.topo, opts)
}

// Build assembles a World without running it.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	if f := cfg.CacheFraction; f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("harness: CacheFraction %v is not a finite non-negative number", f)
	}
	if cfg.VMs < 0 {
		return nil, fmt.Errorf("harness: VMs %d is negative", cfg.VMs)
	}
	if math.IsNaN(cfg.Load) {
		return nil, fmt.Errorf("harness: Load is NaN")
	}
	if cfg.MaxFlows < 0 {
		return nil, fmt.Errorf("harness: MaxFlows %d is negative", cfg.MaxFlows)
	}
	if cfg.ActiveGateways < 0 {
		return nil, fmt.Errorf("harness: ActiveGateways %d is negative", cfg.ActiveGateways)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("harness: Shards %d is negative", cfg.Shards)
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Interval < 0 {
		return nil, fmt.Errorf("harness: Telemetry.Interval %v is negative", cfg.Telemetry.Interval)
	}
	topo, err := topology.New(cfg.Topo)
	if err != nil {
		return nil, err
	}
	net := vnet.New(topo)
	rng := rand.New(rand.NewSource(cfg.Seed))
	vips := net.PlaceUniform(cfg.VMs, rng)

	scheme, err := BuildScheme(cfg, topo)
	if err != nil {
		return nil, err
	}
	engCfg := simnet.DefaultConfig()
	engCfg.ActiveGateways = cfg.ActiveGateways
	engine := simnet.New(topo, net, scheme, engCfg)
	if cfg.Shards > 0 {
		if !ShardSupported(cfg.Scheme) {
			return nil, fmt.Errorf("harness: scheme %q does not support the sharded engine; use one of: %s",
				cfg.Scheme, strings.Join(schemeNames(true), ", "))
		}
		engine.EnableSharding(cfg.Shards)
	}
	agent := transport.New(engine, transport.DefaultConfig())

	w := &World{
		Topo: topo, Net: net, Engine: engine, Agent: agent,
		Scheme: scheme, VIPs: vips, Cfg: cfg,
	}
	if cfg.Telemetry != nil {
		w.attachTelemetry(*cfg.Telemetry)
	}
	if !cfg.Faults.Empty() {
		inj, err := faults.New(cfg.Faults, topo)
		if err != nil {
			return nil, err
		}
		inj.Attach(engine, cfg.Faults)
		w.Injector = inj
	}

	workload := cfg.Workload
	if workload == nil {
		traceCfg := trace.Config{
			VIPs:        vips,
			Servers:     len(topo.Servers()),
			HostLinkBps: cfg.Topo.HostLinkBps,
			Load:        cfg.Load,
			Duration:    cfg.Duration,
			MaxFlows:    cfg.MaxFlows,
			Seed:        cfg.Seed,
		}
		gen := trace.Generators[cfg.TraceName]
		if gen == nil {
			return nil, fmt.Errorf("harness: unknown trace %q", cfg.TraceName)
		}
		workload, err = gen(traceCfg)
		if err != nil {
			return nil, err
		}
	}
	agent.AddFlows(workload.Flows)
	return w, nil
}

// Run builds and runs a full experiment.
func Run(cfg Config) (*Report, error) {
	w, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Run(w.Cfg.Horizon); err != nil {
		return nil, err
	}
	return w.Report(), nil
}

// Report assembles the metrics from the current simulation state.
func (w *World) Report() *Report {
	c := &w.Engine.C
	r := &Report{
		Scheme:           w.Scheme.Name(),
		Summary:          w.Agent.Summarize(),
		GatewayPackets:   c.GatewayPackets,
		HostSent:         c.HostSent,
		AvgStretch:       c.AvgStretch(),
		TotalSwitchBytes: c.TotalSwitchBytes(),
		PerSwitchBytes:   append([]int64(nil), c.SwitchBytes...),
		Misdeliveries:    c.Misdeliveries,
		LastMisdelivered: c.LastMisdelivered,
		Drops:            c.Drops,
		LearningPkts:     c.LearningPkts,
		InvalidationPkts: c.InvalidationPkts,
		AvgPacketLatency: c.AvgPacketLatency(),
		FaultDrops:       c.FaultDrops,
		LossDrops:        c.LossDrops,
		Rerouted:         c.Rerouted,
		World:            w,
	}
	if w.Injector != nil {
		r.FaultEvents = len(w.Injector.Applied)
		if w.Telem != nil {
			// Each event applies at its own instant (AtBarrier), so the
			// timeline is stamped with ev.At.
			w.Telem.Faults = make([]telemetry.FaultRecord, len(w.Injector.Applied))
			for i, ev := range w.Injector.Applied {
				w.Telem.Faults[i] = telemetry.FaultRecord{
					TimeUs: float64(ev.At) / float64(simtime.Microsecond),
					Kind:   ev.Kind.String(), Detail: ev.Detail(),
				}
			}
		}
	}
	if c.HostSent > 0 {
		r.HitRate = 1 - float64(c.GatewayPackets)/float64(c.HostSent)
	}
	r.PerPodBytes = make([]int64, w.Topo.Cfg.Pods)
	for _, sw := range w.Topo.Switches {
		if sw.Pod >= 0 {
			r.PerPodBytes[sw.Pod] += c.SwitchBytes[sw.Idx]
		}
	}
	if st := w.CoreStats(); st != nil {
		stats := *st
		r.CoreStats = &stats
	}
	r.Telemetry = w.Telem
	return r
}

// PodSwitchBytes returns pod-local per-switch byte counts in the paper's
// Fig. 8 order (spines first, then ToRs, gateway ToR last).
func (r *Report) PodSwitchBytes(pod int) []int64 {
	topo := r.World.Topo
	var out []int64
	for _, idx := range topo.SwitchesInPod(pod) {
		out = append(out, r.PerSwitchBytes[idx])
	}
	return out
}
