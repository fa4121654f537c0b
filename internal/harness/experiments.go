package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
)

// RunAll runs run once per input on min(GOMAXPROCS, len(in)) workers and
// returns the results in input order. Every caller seeds each run only
// from its own input, so the results are the same at any GOMAXPROCS.
// Jobs are claimed in index order, and workers stop claiming once a job
// has failed; every job below a failing one has been claimed and runs to
// the end, so the error returned, the lowest-index failing job's, does
// not depend on timing. The sweeps below, scenario.RunAll and
// cmd/experiments run every batch of independent simulations through
// it, each job reducing its run to the numbers its caller keeps.
func RunAll[C, R any](in []C, run func(C) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	errs := make([]error, len(in))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(in)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(in) {
					return
				}
				if out[i], errs[i] = run(in[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SweepPoint is one (scheme, cache size) measurement of a Fig. 5/6-style
// sweep, with improvements normalized by the NoCache baseline as in the
// paper (higher is better).
type SweepPoint struct {
	Scheme        string
	CacheFraction float64

	HitRate             float64
	FCT                 simtime.Duration
	FirstPacket         simtime.Duration
	FCTImprovement      float64
	FirstPktImprovement float64
}

// CacheSizeSweep reproduces the Fig. 5/6 experiment structure: it runs
// NoCache once as the normalization baseline, then every (scheme,
// fraction) combination. Schemes without an in-network cache (NoCache,
// OnDemand, Direct) are measured once at fraction 0.
//
// The points run through RunAll, the baseline as job 0. Every point is
// an independent simulation seeded only from its own Config, so the
// returned series is identical — values and order — at any GOMAXPROCS.
func CacheSizeSweep(base Config, fractions []float64, schemes []string) ([]SweepPoint, error) {
	cfgs := []Config{base}
	cfgs[0].Scheme = SchemeNoCache
	ncRow := -1 // where a requested NoCache row goes among the other points
	for _, scheme := range schemes {
		cfg := base
		cfg.Scheme = scheme
		switch {
		case scheme == SchemeNoCache:
			ncRow = len(cfgs) - 1
		case !sizesCache(scheme):
			cfgs = append(cfgs, cfg)
		default:
			for _, f := range fractions {
				cfg.CacheFraction = f
				cfgs = append(cfgs, cfg)
			}
		}
	}
	pts, err := RunAll(cfgs, func(cfg Config) (SweepPoint, error) {
		r, err := Run(cfg)
		if err != nil {
			return SweepPoint{}, err
		}
		p := SweepPoint{Scheme: r.Scheme, HitRate: r.HitRate, FCT: r.Summary.AvgFCT, FirstPacket: r.Summary.AvgFirstPacket}
		if sizesCache(cfg.Scheme) {
			p.CacheFraction = cfg.CacheFraction
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	nc, out := pts[0], pts[1:]
	if ncRow >= 0 {
		out = slices.Insert(out, ncRow, nc)
	}
	for i := range out {
		p := &out[i]
		if p.FCT > 0 {
			p.FCTImprovement = float64(nc.FCT) / float64(p.FCT)
		}
		if p.FirstPacket > 0 {
			p.FirstPktImprovement = float64(nc.FirstPacket) / float64(p.FirstPacket)
		}
	}
	return out, nil
}

// sizesCache reports whether a sweep varies scheme's cache size: every
// scheme but those without an in-network cache.
func sizesCache(scheme string) bool {
	return scheme != SchemeNoCache && scheme != SchemeOnDemand && scheme != SchemeDirect
}

// GatewayPoint is one measurement of the Fig. 9 gateway-reduction sweep.
type GatewayPoint struct {
	Scheme      string
	Gateways    int
	FCT         simtime.Duration
	FirstPacket simtime.Duration
	Drops       int64
}

// GatewaySweep reproduces Fig. 9: performance as the number of deployed
// gateways shrinks. Points run through RunAll (see CacheSizeSweep for
// the determinism argument).
func GatewaySweep(base Config, gatewayCounts []int, schemes []string) ([]GatewayPoint, error) {
	var cfgs []Config
	for _, scheme := range schemes {
		for _, n := range gatewayCounts {
			cfg := base
			cfg.Scheme = scheme
			cfg.ActiveGateways = n
			cfgs = append(cfgs, cfg)
		}
	}
	return RunAll(cfgs, func(cfg Config) (GatewayPoint, error) {
		r, err := Run(cfg)
		if err != nil {
			return GatewayPoint{}, err
		}
		return GatewayPoint{
			Scheme:      cfg.Scheme,
			Gateways:    cfg.ActiveGateways,
			FCT:         r.Summary.AvgFCT,
			FirstPacket: r.Summary.AvgFirstPacket,
			Drops:       r.Drops,
		}, nil
	})
}

// TopologyPoint is one measurement of the Fig. 10 topology-scaling sweep.
type TopologyPoint struct {
	Scheme string
	Pods   int
	FCT    simtime.Duration
}

// TopologySweep reproduces Fig. 10: base's topology replaced by FT8
// rescaled to each pod count (topology.ScaledFT8) with a fixed server
// count. Points run through RunAll (see CacheSizeSweep).
func TopologySweep(base Config, pods []int, schemes []string) ([]TopologyPoint, error) {
	var cfgs []Config
	for _, scheme := range schemes {
		for _, p := range pods {
			topo, err := topology.ScaledFT8(p)
			if err != nil {
				return nil, err
			}
			cfg := base
			cfg.Topo = topo
			cfg.Scheme = scheme
			cfgs = append(cfgs, cfg)
		}
	}
	return RunAll(cfgs, func(cfg Config) (TopologyPoint, error) {
		r, err := Run(cfg)
		if err != nil {
			return TopologyPoint{}, err
		}
		return TopologyPoint{Scheme: cfg.Scheme, Pods: cfg.Topo.Pods, FCT: r.Summary.AvgFCT}, nil
	})
}

// MigrationConfig parameterizes the §5.2 VM-migration experiment.
type MigrationConfig struct {
	Base Config
	// Senders UDP sources on distinct servers target one VM.
	Senders int
	// TotalPackets across all senders over Duration.
	TotalPackets int
	Payload      int
	Duration     simtime.Duration
	// MigrateAt moves the destination VM to another rack.
	MigrateAt simtime.Time
}

// DefaultMigrationConfig returns the paper's §5.2 parameters: 64 senders,
// 64K packets over 1 ms, migration at 500 µs. The payload is sized so
// the aggregate incast (64K packets/ms with headers) stays just under
// the destination's 100 Gbps NIC: the experiment measures translation
// staleness, not congestion collapse.
func DefaultMigrationConfig(base Config) MigrationConfig {
	return MigrationConfig{
		Base:         base,
		Senders:      64,
		TotalPackets: 64000,
		Payload:      64,
		Duration:     simtime.Millisecond,
		MigrateAt:    simtime.Time(500 * simtime.Microsecond),
	}
}

// MigrationResult is one row of Table 4.
type MigrationResult struct {
	Scheme                  string
	GatewayPacketShare      float64 // fraction of sent packets that reached a gateway
	AvgPacketLatency        simtime.Duration
	LastMisdeliveredArrival simtime.Time
	Misdelivered            int64
	InvalidationPkts        int64
	Delivered               int64
	Drops                   int64
}

// Migration runs the §5.2 incast + mid-trace migration experiment for
// the scheme in cfg.Base.Scheme.
func Migration(cfg MigrationConfig) (*MigrationResult, error) {
	base := cfg.Base.withDefaults()
	w, err := Build(withoutWorkload(base))
	if err != nil {
		return nil, err
	}
	// Pick the destination VM and sender VMs on distinct servers.
	servers := w.Topo.Servers()
	if cfg.Senders+1 > len(servers) {
		return nil, fmt.Errorf("harness: %d senders exceed %d servers", cfg.Senders, len(servers))
	}
	// One VM per chosen server: use the first VM placed on it.
	vmOn := func(server int32) (netaddr.VIP, bool) {
		vms := w.Net.VMsAt(server)
		if len(vms) == 0 {
			return 0, false
		}
		return vms[0], true
	}
	dst, ok := vmOn(servers[0])
	if !ok {
		return nil, fmt.Errorf("harness: no VM on destination server")
	}
	var srcs []netaddr.VIP
	for _, s := range servers[1:] {
		if len(srcs) == cfg.Senders {
			break
		}
		if v, ok := vmOn(s); ok {
			srcs = append(srcs, v)
		}
	}
	if len(srcs) < cfg.Senders {
		return nil, fmt.Errorf("harness: only %d sender VMs available", len(srcs))
	}
	wl := trace.Incast(dst, srcs, cfg.TotalPackets, cfg.Payload, cfg.Duration)
	w.Agent.AddFlows(wl.Flows)
	// Migrate the destination to a server in a different rack.
	dstHost, _ := w.Net.HostOf(dst)
	var newHost int32 = -1
	for _, s := range servers {
		h := w.Topo.Hosts[s]
		if h.Pod != w.Topo.Hosts[dstHost].Pod || h.Rack != w.Topo.Hosts[dstHost].Rack {
			used := false
			for _, src := range srcs {
				if sh, _ := w.Net.HostOf(src); sh == s {
					used = true
					break
				}
			}
			if !used {
				newHost = s
				break
			}
		}
	}
	if newHost < 0 {
		return nil, fmt.Errorf("harness: no migration target found")
	}
	// Barrier op so the shared placement mutation is safe under the
	// sharded engine; degrades to a plain queue event when serial.
	w.Engine.AtBarrier(cfg.MigrateAt, func() {
		if err := w.Net.Migrate(dst, newHost); err != nil {
			panic(err)
		}
	})
	if err := w.Run(simtime.Never); err != nil {
		return nil, err
	}

	c := &w.Engine.C
	res := &MigrationResult{
		Scheme:                  w.Scheme.Name(),
		AvgPacketLatency:        c.AvgPacketLatency(),
		LastMisdeliveredArrival: c.LastMisdelivered,
		Misdelivered:            c.Misdeliveries,
		InvalidationPkts:        c.InvalidationPkts,
		Delivered:               c.Delivered,
		Drops:                   c.Drops,
	}
	if c.HostSent > 0 {
		res.GatewayPacketShare = float64(c.GatewayPackets) / float64(c.HostSent)
	}
	return res, nil
}

// withoutWorkload clears trace generation so Build produces an idle world.
func withoutWorkload(cfg Config) Config {
	cfg.Workload = &trace.Workload{Name: "empty"}
	return cfg
}
