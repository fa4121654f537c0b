// Command benchsnap captures the repo's machine-readable performance
// trajectory: BENCH_engine.json (raw discrete-event throughput, the
// same measurement BenchmarkEngineEventsPerSec reports),
// BENCH_scenario.json (wall-clock and per-phase SLO outcomes of a quick
// production-day scenario), BENCH_workload.json (container-overlay
// trace-generation throughput and workload shape), and BENCH_lint.json
// (v2plint wall time over the whole module, per analyzer, plus the
// finding count). CI runs it on every build; committing the files
// records how engine throughput, scenario cost, and lint cost move over
// time.
//
// Wall-clock figures vary with the host; the simulation-side fields
// (events, flows, SLO verdicts) are deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/containers"
	"switchv2p/internal/harness"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/scenario"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/trace"
)

type engineSnap struct {
	Config        string  `json:"config"`
	Events        int64   `json:"events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	AllocsPerEvt  float64 `json:"allocs_per_event"`
	HeapHighWater int     `json:"heap_high_water"`
	WallMs        float64 `json:"wall_ms"`
	SimEndUs      float64 `json:"sim_end_us"`
	// Sharded reruns the same configuration on the sharded deterministic
	// engine at increasing worker counts. The simulation output is
	// byte-identical at every count; only wall time moves. Events differ
	// from the serial engine's figure because barrier-window bookkeeping
	// (sampler ticks, cross-shard arrivals) is accounted differently.
	Sharded []shardSnap `json:"sharded"`
}

type shardSnap struct {
	Shards       int     `json:"shards"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	WallMs       float64 `json:"wall_ms"`
}

type scenarioSnap struct {
	Config  string           `json:"config"`
	WallMs  float64          `json:"wall_ms"`
	Report  *scenario.Report `json:"report"`
	Horizon string           `json:"horizon"`
}

func engineSnapshot() (*engineSnap, error) {
	cfg := harness.Config{
		VMs: 1024, Scheme: harness.SchemeSwitchV2P, TraceName: "hadoop",
		Load: 0.30, Duration: 200 * simtime.Microsecond, MaxFlows: 1000,
		CacheFraction: 0.5, Seed: 1,
		Telemetry: &telemetry.Options{ProfileOnly: true},
	}
	r, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	var sharded []shardSnap
	for _, n := range []int{1, 2, 4, 8} {
		scfg := cfg
		scfg.Shards = n
		sr, err := harness.Run(scfg)
		if err != nil {
			return nil, err
		}
		sp := &sr.Telemetry.Profile
		sharded = append(sharded, shardSnap{
			Shards:       n,
			Events:       sp.Events,
			EventsPerSec: sp.EventsPerSec(),
			WallMs:       float64(sp.Wall) / float64(time.Millisecond),
		})
	}
	p := &r.Telemetry.Profile
	return &engineSnap{
		Config:        "switchv2p/hadoop FT8 1024VM 1000flows (BenchmarkEngineEventsPerSec)",
		Events:        p.Events,
		EventsPerSec:  p.EventsPerSec(),
		AllocsPerEvt:  p.AllocsPerEvent(),
		HeapHighWater: p.HeapHighWater,
		WallMs:        float64(p.Wall) / float64(time.Millisecond),
		SimEndUs:      float64(p.SimEnd) / 1e3,
		Sharded:       sharded,
	}, nil
}

func scenarioSnapshot() (*scenarioSnap, error) {
	spec := scenario.ProductionDay(harness.Config{
		VMs: 1024, Scheme: harness.SchemeSwitchV2P, TraceName: "hadoop",
		Load: 0.30, CacheFraction: 0.5, Seed: 1,
	}, scenario.DayOptions{
		DayLength:  24 * simtime.Millisecond,
		FlowBudget: 2400, Churn: 24, Migrations: 16,
		UpgradeWaves: 2, DrainGateways: 2,
	})
	t0 := time.Now()
	rep, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	rep.Final = nil // keep the snapshot phase-oriented (Final is json:"-" anyway)
	return &scenarioSnap{
		Config:  "production-day quick (switchv2p/hadoop FT8 1024VM 2400flows)",
		WallMs:  float64(wall) / float64(time.Millisecond),
		Report:  rep,
		Horizon: fmt.Sprintf("%.1fms simulated", rep.HorizonUs/1e3),
	}, nil
}

type workloadSnap struct {
	Config       string  `json:"config"`
	Flows        int     `json:"flows"`
	TotalBytes   int64   `json:"total_bytes"`
	DistinctDsts int     `json:"distinct_dests"`
	ReuseDistUs  float64 `json:"mean_reuse_distance_us"`
	FlowsPerSec  float64 `json:"flows_per_sec"`
	WallMs       float64 `json:"wall_ms"`
}

// workloadSnapshot measures the container-overlay trace generator:
// wall-clock generation throughput plus the deterministic shape of the
// emitted workload (flow count, bytes, reuse structure).
func workloadSnapshot() (*workloadSnap, error) {
	var alloc netaddr.VIPAllocator
	vips := make([]netaddr.VIP, 64*128)
	for i := range vips {
		vips[i] = alloc.Next()
	}
	cfg := trace.Config{
		VIPs:        vips,
		Servers:     128,
		HostLinkBps: 100e9,
		Load:        0.30,
		Duration:    simtime.Millisecond,
		MaxFlows:    50000,
		Seed:        1,
	}
	gen := containers.Generator(containers.Spec{PerHost: 64})
	t0 := time.Now()
	w, err := gen(cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	s := trace.Analyze(w)
	return &workloadSnap{
		Config:       "containers 64/host 128 servers 50000 flows (density 64, fan-out 3, reuse 0.7)",
		Flows:        s.Flows,
		TotalBytes:   s.TotalBytes,
		DistinctDsts: s.DistinctDests,
		ReuseDistUs:  float64(s.MeanReuseDistance) / 1e3,
		FlowsPerSec:  float64(s.Flows) / wall.Seconds(),
		WallMs:       float64(wall) / float64(time.Millisecond),
	}, nil
}

type lintSnap struct {
	Config     string             `json:"config"`
	Packages   int                `json:"packages"`
	Analyzers  int                `json:"analyzers"`
	Findings   int                `json:"findings"`
	WallMs     float64            `json:"wall_ms"`
	AnalyzerMs map[string]float64 `json:"analyzer_ms"`
}

func lintSnapshot() (*lintSnap, error) {
	t0 := time.Now()
	pkgs, err := v2plint.LoadPackages("", []string{"switchv2p/..."})
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages loaded")
	}
	prog := v2plint.NewProgram(pkgs[0].Fset)
	prog.EnableTimings()
	for _, p := range pkgs {
		prog.Add(p.Files, p.Pkg, p.Info)
	}
	analyzers := v2plint.Analyzers()
	diags := prog.Run(analyzers)
	wall := time.Since(t0)
	per := map[string]float64{}
	for name, d := range prog.Timings() {
		per[name] = float64(d) / float64(time.Millisecond)
	}
	return &lintSnap{
		Config:     "v2plint switchv2p/... (load + call graph + all analyzers)",
		Packages:   len(pkgs),
		Analyzers:  len(analyzers),
		Findings:   len(diags),
		WallMs:     float64(wall) / float64(time.Millisecond),
		AnalyzerMs: per,
	}, nil
}

func writeJSON(dir, name string, v any) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	out := flag.String("out", ".", "directory for BENCH_*.json")
	flag.Parse()

	eng, err := engineSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap engine: %v\n", err)
		os.Exit(1)
	}
	if err := writeJSON(*out, "BENCH_engine.json", eng); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("BENCH_engine.json: %d events, %.0f events/sec, %.3f allocs/event\n",
		eng.Events, eng.EventsPerSec, eng.AllocsPerEvt)
	for _, s := range eng.Sharded {
		fmt.Printf("  sharded %d: %d events, %.0f events/sec\n", s.Shards, s.Events, s.EventsPerSec)
	}

	scen, err := scenarioSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap scenario: %v\n", err)
		os.Exit(1)
	}
	if err := writeJSON(*out, "BENCH_scenario.json", scen); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	pass := 0
	for i := range scen.Report.Phases {
		if scen.Report.Phases[i].SLOPass {
			pass++
		}
	}
	fmt.Printf("BENCH_scenario.json: %d flows over %s in %.0fms wall, %d/%d phases met SLO\n",
		scen.Report.Flows, scen.Horizon, scen.WallMs, pass, len(scen.Report.Phases))

	work, err := workloadSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap workload: %v\n", err)
		os.Exit(1)
	}
	if err := writeJSON(*out, "BENCH_workload.json", work); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("BENCH_workload.json: %d flows in %.0fms wall (%.0f flows/sec), %d distinct dests\n",
		work.Flows, work.WallMs, work.FlowsPerSec, work.DistinctDsts)

	lint, err := lintSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap lint: %v\n", err)
		os.Exit(1)
	}
	if err := writeJSON(*out, "BENCH_lint.json", lint); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("BENCH_lint.json: %d analyzers over %d packages in %.0fms wall, %d finding(s)\n",
		lint.Analyzers, lint.Packages, lint.WallMs, lint.Findings)
}
