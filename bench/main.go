// Command bench is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the simulator sees, and a per-layer ledger
// taken from outside the simulator (timed calls into the layers' public
// functions and a CPU profile of the unmodified process). BENCHMARK.json
// at the repository root lists the workloads, metrics and bounds;
// README.md explains them.
//
//	go run ./bench -seed 1                       # every workload, both phases
//	go run ./bench -workload hadoop-steady -seed 3 -seconds 18 -trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"switchv2p/internal/harness"
	"switchv2p/internal/stats"
)

// metric is one named measurement. Host-time metrics are the median over
// the timed repetitions and carry min, max and the repetition count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
	// Info marks a metric that is printed but not listed in BENCHMARK.json
	// (see README.md, "Printed but not gated").
	Info bool `json:"info,omitempty"`
}

// summarize is the median (nearest rank) of one host-time quantity over
// its repetitions, with min, max and count.
func summarize(name, unit string, v []float64) metric {
	var s stats.Sample
	for _, x := range v {
		s.Add(x)
	}
	return metric{Name: name, Unit: unit, Value: s.Quantile(0.5), Min: s.Min(), Max: s.Max(), N: s.N()}
}

func perRep(reps []*runResult, f func(*runResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

func runSMetric(reps []*runResult) metric {
	return summarize("run_s", "s", perRep(reps, func(r *runResult) float64 { return r.runS }))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	reps    int
	seconds float64 // > 0: time-box each phase instead of counting reps
	e2e     bool    // run the untraced repetitions and report end-to-end metrics
	traced  bool    // run the traced phase and report per-layer metrics
	tiny    bool    // smoke-test scale
	golden  map[string]string
	out     io.Writer
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Digest    string   `json:"sim_digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	Spans     []span   `json:"spans,omitempty"`
}

// repeat runs the warm-up and the timed repetitions. Every run's digest
// must equal the warm-up's. hadoop-sharded warms up at Shards 1, so the
// check also proves the 2-worker run computes what 1 worker does.
func repeat(w workload, o options, minReps int, deadline time.Time) (first *runResult, reps []*runResult, err error) {
	warm := w
	if w.base.Shards > 1 {
		warm.base.Shards = 1
	}
	first, err = warm.run(o.seed, false)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	for len(reps) < minReps || time.Now().Before(deadline) {
		r, err := w.run(o.seed, false)
		if err != nil {
			return nil, nil, fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		if r.digest != first.digest {
			return nil, nil, fmt.Errorf("repetition %d: sim_digest %s differs from the warm-up's %s", len(reps)+1, r.digest, first.digest)
		}
		reps = append(reps, r)
	}
	return first, reps, nil
}

func endToEnd(reps []*runResult, runS metric, setUps []float64) []metric {
	sim := &reps[0].sim // identical on every repetition (same digest)
	pkts := float64(sim.hostSent)
	runS.Info = true
	return []metric{
		summarize("setup_s", "s", setUps),
		summarize("sim_pkts_per_s", "pkt/s", perRep(reps, func(r *runResult) float64 { return pkts / r.runS })),
		summarize("allocs_per_pkt", "alloc/pkt", perRep(reps, func(r *runResult) float64 { return float64(r.mem.mallocs) / pkts })),
		summarize("live_heap_mb", "MB", perRep(reps, func(r *runResult) float64 { return r.liveHeapMB })),
		runS,
		{Name: "gw_offload", Unit: "ratio", Value: sim.hitRate, Info: true},
		{Name: "first_pkt_p99_us", Unit: "us", Value: sim.firstPktP99Us, Info: true},
		{Name: "fct_p99_us", Unit: "us", Value: sim.fctP99Us, Info: true},
		{Name: "failed_frac", Unit: "ratio", Value: ratio(float64(sim.failed()), float64(sim.flows)), Info: true},
	}
}

// tracedPhase produces the per-layer ledger. untracedRunS is the median
// run_s of the untraced repetitions, the base of tracing.overhead_frac.
func tracedPhase(w workload, o options, untracedRunS float64, digest string, log *spanLog) ([]metric, error) {
	// Traced runs: EngineProfile counts plus one CPU profile per run,
	// attributed by leaf function and summed over the runs: one run, or
	// when time-boxed as many as fit in 0.6 of -seconds (the replay and the
	// kernels take the rest).
	deadline := time.Now().Add(time.Duration(0.6 * o.seconds * float64(time.Second)))
	var err error
	layerNs := map[string]int64{}
	var totalNs int64
	samples := 0
	var runs []*runResult
	for len(runs) == 0 || time.Now().Before(deadline) {
		var r *runResult
		log.do("traced.run", "traced", func() { r, err = w.run(o.seed, true) })
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if r.digest != digest {
			return nil, fmt.Errorf("traced run: sim_digest %s differs from the untraced %s", r.digest, digest)
		}
		prof, err := parseCPUProfile(r.profile)
		if err != nil {
			return nil, err
		}
		totalNs += attribute(prof, layerNs)
		samples += len(prof)
		runs = append(runs, r)
	}
	last := runs[len(runs)-1]
	sim, mem := &last.sim, &last.mem
	n := float64(len(runs))
	tracedRunS := runSMetric(runs).Value

	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{Name: name, Unit: unit, Value: v}) }
	var sumNs int64
	for _, l := range selfTimeMetrics {
		add(l, "s", float64(layerNs[l])/n/1e9)
		sumNs += layerNs[l]
	}
	if sumNs != totalNs {
		return nil, fmt.Errorf("profile attribution: layers sum to %d ns of %d ns", sumNs, totalNs)
	}
	add("profile.cpu_s", "s", float64(totalNs)/n/1e9)
	add("profile.samples", "count", float64(samples))
	add("tracing.overhead_frac", "ratio", tracedRunS/untracedRunS-1)

	// The paper's results, exact at a fixed seed: recorded here because
	// across seeds they are too unsteady (or constant, or zero) to gate.
	add("sim.gw_offload", "ratio", sim.hitRate)
	add("sim.first_pkt_p99_us", "us", sim.firstPktP99Us)
	add("sim.fct_p99_us", "us", sim.fctP99Us)

	pkts, events := float64(sim.hostSent), float64(sim.events)
	add("simnet.events", "count", events)
	add("simnet.events_per_pkt", "events/pkt", ratio(events, pkts))
	add("simnet.ns_per_event", "ns/event", ratio(tracedRunS*1e9, events))
	add("eventq.pending_max", "count", float64(sim.pendingMax))
	add("simnet.host_sent", "count", pkts)
	add("simnet.gateway_pkts", "count", float64(sim.gatewayPkts))
	add("simnet.avg_stretch", "ratio", sim.avgStretch)
	add("simnet.drops", "count", float64(sim.drops))
	add("simnet.fault_drops", "count", float64(sim.faultDrops))
	add("simnet.rerouted", "count", float64(sim.rerouted))
	add("transport.retransmits", "count", float64(sim.retransmits))
	add("transport.timed_out", "count", float64(sim.timedOut))
	add("transport.flows", "count", float64(sim.flows))
	add("transport.pkts_per_flow", "pkt/flow", ratio(pkts, float64(sim.flows)))
	add("core.lookups", "count", float64(sim.coreLookups))
	add("core.hit_ratio", "ratio", ratio(float64(sim.coreHits), float64(sim.coreLookups)))
	add("core.evictions", "count", float64(sim.coreEvictions))
	add("core.learning_pkts", "count", float64(sim.learningPkts))
	add("core.invalidation_pkts", "count", float64(sim.invalidationPkts))
	add("core.entries_invalidated", "count", float64(sim.coreInvalidated))
	add("core.misdeliveries", "count", float64(sim.misdeliveries))
	add("shard.domains", "count", float64(sim.shardDomains))
	var maxDom, sumDom int64
	for _, e := range sim.shardEvents {
		sumDom += e
		if e > maxDom {
			maxDom = e
		}
	}
	add("shard.event_imbalance", "ratio", ratio(float64(maxDom)*float64(len(sim.shardEvents)), float64(sumDom)))
	// The like-for-like serial runs: the same flows on the serial engine.
	speedup := 0.0
	if w.base.Shards > 0 {
		serial := w
		serial.base.Shards = 0
		var rs []*runResult
		for i := 0; i < 2; i++ {
			var r *runResult
			log.do("serial.run", "traced", func() { r, err = serial.run(o.seed, false) })
			if err != nil {
				return nil, fmt.Errorf("serial run: %w", err)
			}
			rs = append(rs, r)
		}
		speedup = runSMetric(rs).Value / untracedRunS
	}
	add("shard.speedup_vs_serial", "ratio", speedup)
	add("faults.events_applied", "count", float64(sim.faultEvents))
	add("scenario.phases_slo_pass", "count", float64(sim.phasesSLOPass))
	add("runtime.mallocs_per_event", "alloc/event", ratio(float64(mem.mallocs), events))
	add("runtime.alloc_bytes_per_pkt", "B/pkt", ratio(float64(mem.bytes), pkts))
	add("runtime.gc_cycles", "count", float64(mem.gcCycles))
	add("runtime.gc_pause_ms", "ms", float64(mem.gcPauseNs)/1e6)

	// Set-up stages, replayed through the public constructors. The
	// scenario builds its World inside scenario.Run, so production-day has
	// no stages to replay (they read 0) and its kernels use the base world.
	var world *harness.World
	stages := map[string]float64{}
	if w.day == nil {
		cfg := w.base
		cfg.Seed = o.seed
		var replayed string
		log.do("replay", "traced", func() { world, stages, replayed, err = replayBuild(cfg, log) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if replayed != digest {
			return nil, fmt.Errorf("replay: sim_digest %s differs from harness.Build's %s", replayed, digest)
		}
	} else if world, _, _, err = w.setUp(o.seed, nil); err != nil {
		return nil, err
	}
	for _, s := range stageNames {
		add(s, "s", stages[s])
	}

	ops, genTime := 2_000_000, 100*time.Millisecond
	if o.tiny {
		ops, genTime = 20_000, time.Millisecond
	}
	var k kernels
	log.do("kernels", "traced", func() { k, err = runKernels(world, sim.pendingMax, ops, genTime, o.seed, log) })
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	add("eventq.hold_ns", "ns/op", k.holdNs)
	add("eventq.hold_allocs", "alloc/op", k.holdAllocs)
	add("core.cache_lookup_ns", "ns/op", k.lookupNs)
	add("core.cache_insert_ns", "ns/op", k.insertNs)
	add("core.cache_invalidate_ns", "ns/op", k.invalidateNs)
	add("trace.gen_flows_per_s", "1/s", k.genFlowsPerS)
	return ms, nil
}

// measure runs one workload's phases and prints every metric by name with
// its unit.
func measure(w workload, o options) (*result, error) {
	if o.tiny {
		w = w.tiny()
	}
	start := time.Now()
	res := &result{Workload: w.name}
	log := &spanLog{t0: start}

	// The traced phase needs the untraced run_s as the base of its
	// overhead figure; when only it runs, a short untraced set comes first.
	minReps, until := o.reps, start.Add(time.Duration(o.seconds*float64(time.Second)))
	if !o.e2e {
		minReps, until = 2, start
	}
	var warm *runResult
	var reps []*runResult
	var err error
	log.do("untraced.reps", "", func() { warm, reps, err = repeat(w, o, minReps, until) })
	if err != nil {
		return nil, err
	}
	res.Digest = reps[0].digest
	for _, r := range reps {
		res.Attempted += r.sim.flows
		res.Failed += r.sim.failed()
	}
	runS := runSMetric(reps)
	fmt.Fprintf(o.out, "== %s seed=%d reps=%d warmup_run_s=%.4g flows=%d host_sent=%d sim_digest=%s\n",
		w.name, o.seed, len(reps), warm.runS, reps[0].sim.flows, reps[0].sim.hostSent, res.Digest)
	if want, ok := o.golden[w.name]; ok {
		match := 0
		if want == res.Digest {
			match = 1
		}
		fmt.Fprintf(o.out, "   sim_digest_match %d (bench/golden.json)\n", match)
	}
	if o.e2e {
		var setUps []float64
		log.do("setup.reps", "", func() { setUps, err = w.setUpTimes(o.seed) })
		if err != nil {
			return nil, err
		}
		res.EndToEnd = endToEnd(reps, runS, setUps)
		printMetrics(o.out, "e2e", res.EndToEnd)
	}
	if o.traced {
		log.do("traced", "", func() { res.PerLayer, err = tracedPhase(w, o, runS.Value, res.Digest, log) })
		if err != nil {
			return nil, err
		}
		printMetrics(o.out, "layer", res.PerLayer)
		res.Spans = log.spans
	}
	return res, nil
}

func printMetrics(out io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("   %-5s %-28s %16.6g %-11s", kind, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" min %.6g max %.6g n %d", m.Min, m.Max, m.N)
		}
		if m.Info {
			line += " (not gated)"
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}

// resultLine is the last line of a workload's output: the contract the
// benchmark driver parses. It carries the metrics BENCHMARK.json lists.
func resultLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range append(append([]metric(nil), r.EndToEnd...), r.PerLayer...) {
		if !m.Info {
			line.Metrics[m.Name] = mv{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return string(b)
}

// host records the conditions the numbers were taken under.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	WallS      float64 `json:"wall_s"`
}

func hostConditions(o options) host {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
		Seed: o.seed, Reps: o.reps, Seconds: o.seconds,
	}
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds the committed sim_digest of every workload at one
// seed, so a simulator-only change can show its simulated statistics are
// bit-identical.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"sim_digest"`
}

type stringsFlag []string

func (s *stringsFlag) String() string     { return strings.Join(*s, ",") }
func (s *stringsFlag) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names stringsFlag
	fs.Var(&names, "workload", "workload to run (repeatable; default: all)")
	seed := fs.Int64("seed", 1, "workload seed (harness Config.Seed)")
	reps := fs.Int("reps", 5, "timed repetitions per workload when -seconds is 0")
	seconds := fs.Float64("seconds", 0, "time-box each workload to about this many seconds instead of counting -reps")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	outPath := fs.String("out", "", "write host conditions, every metric and the spans to this JSON file")
	updateGolden := fs.Bool("update-golden", false, "rewrite bench/golden.json with this run's digests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 || *trace < -1 || *trace > 1 || *seconds < 0 {
		return fmt.Errorf("invalid -reps, -seconds or -trace")
	}
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, e2e: *trace != 1, traced: *trace != 0, out: stdout}
	if *seconds > 0 {
		o.reps = 3 // the floor when time-boxed
	}
	if golden.Seed == *seed {
		o.golden = golden.Digests
	}
	todo := workloads
	if len(names) > 0 {
		todo = nil
		for _, n := range names {
			w, ok := workloadByName(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			todo = append(todo, w)
		}
	}

	h := hostConditions(o)
	fmt.Fprintf(stdout, "host: num_cpu=%d gomaxprocs=%d %s %s/%s commit=%s seed=%d reps=%d seconds=%g\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit, h.Seed, h.Reps, h.Seconds)
	start := time.Now()
	var results []*result
	for _, w := range todo {
		r, err := measure(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}
	h.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "wall time of the set: %.1f s\n", h.WallS)

	if *updateGolden {
		if golden.Seed != *seed || golden.Digests == nil {
			golden = goldenFile{Seed: *seed, Digests: map[string]string{}}
		}
		for _, r := range results {
			golden.Digests[r.Workload] = r.Digest
		}
		if err := writeJSON("bench/golden.json", golden); err != nil {
			return err
		}
	}
	if *outPath != "" {
		err := writeJSON(*outPath, struct {
			Host      host      `json:"host"`
			Workloads []*result `json:"workloads"`
		}{h, results})
		if err != nil {
			return err
		}
	}
	for _, r := range results {
		fmt.Fprintln(stdout, resultLine(r))
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
