package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
)

// RunIndexed runs n independent jobs through a bounded worker pool,
// returning the first error. Jobs are identified by index, so callers
// store results into pre-sized slices and output order never depends on
// scheduling. workers <= 1 degenerates to a plain serial loop. The
// sweeps below, scenario.RunAll and cmd/experiments run every batch of
// independent simulations through it at runtime.GOMAXPROCS(0) workers.
func RunIndexed(workers, n int, job func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					return
				}
				if err := job(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
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
// The points run through RunIndexed on GOMAXPROCS workers. Every point
// is an independent simulation seeded only from its own Config, so the
// returned series is identical — values and order — at any worker
// count.
func CacheSizeSweep(base Config, fractions []float64, schemes []string) ([]SweepPoint, error) {
	baseCfg := base
	baseCfg.Scheme = SchemeNoCache
	nc, err := Run(baseCfg)
	if err != nil {
		return nil, err
	}
	ncFCT := nc.Summary.AvgFCT
	ncFirst := nc.Summary.AvgFirstPacket

	type job struct {
		scheme  string
		frac    float64
		setFrac bool // cache schemes: override CacheFraction with frac
		useNC   bool // reuse the NoCache baseline report
	}
	var jobs []job
	for _, scheme := range schemes {
		switch scheme {
		case SchemeNoCache:
			jobs = append(jobs, job{scheme: scheme, useNC: true})
		case SchemeOnDemand, SchemeDirect:
			jobs = append(jobs, job{scheme: scheme})
		default:
			for _, f := range fractions {
				jobs = append(jobs, job{scheme: scheme, frac: f, setFrac: true})
			}
		}
	}

	reports := make([]*Report, len(jobs))
	err = RunIndexed(runtime.GOMAXPROCS(0), len(jobs), func(i int) error {
		if jobs[i].useNC {
			reports[i] = nc
			return nil
		}
		cfg := base
		cfg.Scheme = jobs[i].scheme
		if jobs[i].setFrac {
			cfg.CacheFraction = jobs[i].frac
		}
		r, err := Run(cfg)
		if err != nil {
			return err
		}
		reports[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]SweepPoint, 0, len(jobs))
	for i, r := range reports {
		p := SweepPoint{
			Scheme:        r.Scheme,
			CacheFraction: jobs[i].frac,
			HitRate:       r.HitRate,
			FCT:           r.Summary.AvgFCT,
			FirstPacket:   r.Summary.AvgFirstPacket,
		}
		if r.Summary.AvgFCT > 0 {
			p.FCTImprovement = float64(ncFCT) / float64(r.Summary.AvgFCT)
		}
		if r.Summary.AvgFirstPacket > 0 {
			p.FirstPktImprovement = float64(ncFirst) / float64(r.Summary.AvgFirstPacket)
		}
		out = append(out, p)
	}
	return out, nil
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
// gateways shrinks. Points run concurrently (see CacheSizeSweep for the
// determinism argument).
func GatewaySweep(base Config, gatewayCounts []int, schemes []string) ([]GatewayPoint, error) {
	type job struct {
		scheme   string
		gateways int
	}
	var jobs []job
	for _, scheme := range schemes {
		for _, n := range gatewayCounts {
			jobs = append(jobs, job{scheme: scheme, gateways: n})
		}
	}
	out := make([]GatewayPoint, len(jobs))
	err := RunIndexed(runtime.GOMAXPROCS(0), len(jobs), func(i int) error {
		cfg := base
		cfg.Scheme = jobs[i].scheme
		cfg.ActiveGateways = jobs[i].gateways
		r, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = GatewayPoint{
			Scheme:      jobs[i].scheme,
			Gateways:    jobs[i].gateways,
			FCT:         r.Summary.AvgFCT,
			FirstPacket: r.Summary.AvgFirstPacket,
			Drops:       r.Drops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopologyPoint is one measurement of the Fig. 10 topology-scaling sweep.
type TopologyPoint struct {
	Scheme string
	Pods   int
	FCT    simtime.Duration
}

// TopologySweep reproduces Fig. 10: base's topology replaced by FT8
// rescaled to each pod count (topology.ScaledFT8) with a fixed server
// count. Points run concurrently (see CacheSizeSweep).
func TopologySweep(base Config, pods []int, schemes []string) ([]TopologyPoint, error) {
	type job struct {
		scheme string
		pods   int
	}
	var jobs []job
	for _, scheme := range schemes {
		for _, p := range pods {
			jobs = append(jobs, job{scheme: scheme, pods: p})
		}
	}
	out := make([]TopologyPoint, len(jobs))
	err := RunIndexed(runtime.GOMAXPROCS(0), len(jobs), func(i int) error {
		topo, err := topology.ScaledFT8(jobs[i].pods)
		if err != nil {
			return err
		}
		cfg := base
		cfg.Topo = topo
		cfg.Scheme = jobs[i].scheme
		r, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = TopologyPoint{Scheme: jobs[i].scheme, Pods: jobs[i].pods, FCT: r.Summary.AvgFCT}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
