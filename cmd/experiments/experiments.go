package main

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"path/filepath"

	"switchv2p/internal/harness"
	"switchv2p/internal/p4model"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// Scale selects the experiment size. "full" approaches the paper's trace
// sizes; "standard" preserves shapes at ~1/3 the wall time; "quick" is a
// smoke test.
type Scale struct {
	Name      string
	VMs       int
	Duration  simtime.Duration
	MaxFlows  int
	Fractions []float64 // cache-size sweep points (fraction of VIP space)
	FT16VMs   int
	FT16Flows int
	Seed      int64
	// Workers > 1 runs sweep points through the harness worker pool
	// (-parallel); output is identical at any worker count.
	Workers int

	MigrationPackets int
	MigrationSenders int
}

var scales = map[string]Scale{
	"quick": {
		Name: "quick", VMs: 1024, Duration: 300 * simtime.Microsecond, MaxFlows: 1500,
		Fractions: []float64{0.1, 1.0}, FT16VMs: 20000, FT16Flows: 1500,
		MigrationPackets: 6400, MigrationSenders: 32,
	},
	// standard keeps the paper's ~5-10 flows-per-VM destination-reuse
	// ratio (99K flows / 10240 VMs) at a smaller absolute size.
	"standard": {
		Name: "standard", VMs: 4096, Duration: 3 * simtime.Millisecond, MaxFlows: 60000,
		Fractions: []float64{0.01, 0.1, 0.5, 1.0, 10}, FT16VMs: 100000, FT16Flows: 20000,
		MigrationPackets: 64000, MigrationSenders: 64,
	},
	"full": {
		Name: "full", VMs: 10240, Duration: 15 * simtime.Millisecond, MaxFlows: 100000,
		Fractions: []float64{0.01, 0.1, 0.5, 1.0, 10, 100}, FT16VMs: 410865, FT16Flows: 60000,
		MigrationPackets: 64000, MigrationSenders: 64,
	},
}

func (sc Scale) baseConfig(traceName string) harness.Config {
	return harness.Config{
		Topo:          topology.FT8(),
		VMs:           sc.VMs,
		TraceName:     traceName,
		Load:          0.30,
		Duration:      sc.Duration,
		MaxFlows:      sc.MaxFlows,
		CacheFraction: 0.5,
		Seed:          sc.Seed,
		SweepWorkers:  sc.Workers,
	}
}

func newTable(headers ...string) (*tabwriter.Writer, func()) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(headers, "\t"))
	return tw, func() { tw.Flush() }
}

func us(d simtime.Duration) string { return fmt.Sprintf("%.1f", d.Micros()) }

// csvDir, when set via -csv, receives plot-ready CSV files per experiment.
var csvDir string

// writeCSV writes one experiment's CSV if -csv was given.
func writeCSV(name string, write func(w *os.File) error) {
	if csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", name, err)
	}
}

// table3 echoes the topology characteristics (Table 3).
func table3(sc Scale) error {
	tw, done := newTable("property", "FT8-10K", "FT16-400K")
	defer done()
	ft8, err := topology.New(topology.FT8())
	if err != nil {
		return err
	}
	ft16, err := topology.New(topology.FT16())
	if err != nil {
		return err
	}
	count := func(t *topology.Topology) (pods, racks, tors, cores, gws, servers int) {
		pods = t.Cfg.Pods
		racks = t.Cfg.RacksPerPod
		for _, s := range t.Switches {
			if s.Role.IsToR() {
				tors++
			}
			if s.Role == topology.RoleCore {
				cores++
			}
		}
		gws = len(t.Gateways())
		servers = len(t.Servers())
		return
	}
	p8, r8, t8, c8, g8, s8 := count(ft8)
	p16, r16, t16, c16, g16, s16 := count(ft16)
	fmt.Fprintf(tw, "#Pods\t%d\t%d\n", p8, p16)
	fmt.Fprintf(tw, "#Racks per pod\t%d\t%d\n", r8, r16)
	fmt.Fprintf(tw, "#ToR switches\t%d\t%d\n", t8, t16)
	fmt.Fprintf(tw, "#Core switches\t%d\t%d\n", c8, c16)
	fmt.Fprintf(tw, "#Gateways\t%d\t%d\n", g8, g16)
	fmt.Fprintf(tw, "#Physical servers\t%d\t%d\n", s8, s16)
	fmt.Fprintf(tw, "#VMs (configured)\t%d\t%d\n", sc.VMs, sc.FT16VMs)
	return nil
}

// fig5 runs the cache-size sweep for one FT8 trace (Figs. 5a-5d).
func fig5(sc Scale, traceName string) error {
	schemes := []string{
		harness.SchemeNoCache, harness.SchemeLocalLearning, harness.SchemeGwCache,
		harness.SchemeBluebird, harness.SchemeOnDemand, harness.SchemeDirect,
		harness.SchemeSwitchV2P,
	}
	pts, err := harness.CacheSizeSweep(sc.baseConfig(traceName), sc.Fractions, schemes)
	if err != nil {
		return err
	}
	writeCSV("fig5_"+traceName+".csv", func(w *os.File) error { return harness.WriteSweepCSV(w, pts) })
	printSweep(pts)
	return nil
}

func printSweep(pts []harness.SweepPoint) {
	tw, done := newTable("scheme", "cache", "hit-rate", "FCT(µs)", "FCTx", "first(µs)", "firstx")
	defer done()
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%g\t%.3f\t%s\t%.2f\t%s\t%.2f\n",
			p.Scheme, p.CacheFraction, p.HitRate, us(p.FCT), p.FCTImprovement,
			us(p.FirstPacket), p.FirstPktImprovement)
	}
}

// fig6 runs the Alibaba sweep on FT16-400K.
func fig6(sc Scale) error {
	base := sc.baseConfig("alibaba")
	base.Topo = topology.FT16()
	base.VMs = sc.FT16VMs
	base.MaxFlows = sc.FT16Flows
	schemes := []string{
		harness.SchemeNoCache, harness.SchemeLocalLearning, harness.SchemeGwCache,
		harness.SchemeOnDemand, harness.SchemeDirect, harness.SchemeSwitchV2P,
	}
	pts, err := harness.CacheSizeSweep(base, sc.Fractions, schemes)
	if err != nil {
		return err
	}
	writeCSV("fig6_alibaba_ft16.csv", func(w *os.File) error { return harness.WriteSweepCSV(w, pts) })
	printSweep(pts)
	return nil
}

// fig7 prints the per-pod processed-bytes heatmap plus the §5.3 derived
// claims (total bytes ratios and packet stretch).
func fig7(sc Scale) error {
	schemes := []string{
		harness.SchemeNoCache, harness.SchemeLocalLearning, harness.SchemeGwCache,
		harness.SchemeSwitchV2P, harness.SchemeDirect,
	}
	reports := make(map[string]*harness.Report)
	var csvRows []*harness.Report
	tw, done := newTable("scheme", "pod1", "pod2", "pod3", "pod4", "pod5", "pod6", "pod7", "pod8", "totalMB", "stretch")
	for _, s := range schemes {
		cfg := sc.baseConfig("hadoop")
		cfg.Scheme = s
		r, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		reports[s] = r
		csvRows = append(csvRows, r)
		row := []string{r.Scheme}
		for _, b := range r.PerPodBytes {
			row = append(row, fmt.Sprintf("%d", b>>20))
		}
		row = append(row, fmt.Sprintf("%d", r.TotalSwitchBytes>>20), fmt.Sprintf("%.1f", r.AvgStretch))
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	done()
	writeCSV("fig7_pod_bytes.csv", func(w *os.File) error { return harness.WritePodBytesCSV(w, csvRows) })
	nc, gw, sv, d := reports[harness.SchemeNoCache], reports[harness.SchemeGwCache],
		reports[harness.SchemeSwitchV2P], reports[harness.SchemeDirect]
	fmt.Printf("network bytes: SwitchV2P vs NoCache %.2fx, vs GwCache %.2fx, vs Direct +%.0f%%\n",
		float64(nc.TotalSwitchBytes)/float64(sv.TotalSwitchBytes),
		float64(gw.TotalSwitchBytes)/float64(sv.TotalSwitchBytes),
		100*(float64(sv.TotalSwitchBytes)/float64(d.TotalSwitchBytes)-1))
	return nil
}

// fig8 prints per-switch bytes inside gateway pod 8 (index 7).
func fig8(sc Scale) error {
	schemes := []string{
		harness.SchemeNoCache, harness.SchemeLocalLearning, harness.SchemeGwCache,
		harness.SchemeSwitchV2P,
	}
	tw, done := newTable("scheme", "sp1", "sp2", "sp3", "sp4", "tor5", "tor6", "tor7", "gwToR8")
	defer done()
	var ncGwToR, svGwToR int64
	for _, s := range schemes {
		cfg := sc.baseConfig("hadoop")
		cfg.Scheme = s
		r, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		row := []string{r.Scheme}
		bytes := r.PodSwitchBytes(7)
		for _, b := range bytes {
			row = append(row, fmt.Sprintf("%d", b>>20))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
		if s == harness.SchemeNoCache {
			ncGwToR = bytes[len(bytes)-1]
		}
		if s == harness.SchemeSwitchV2P {
			svGwToR = bytes[len(bytes)-1]
		}
	}
	if svGwToR > 0 {
		fmt.Printf("(gateway ToR traffic reduction vs NoCache: %.1fx)\n", float64(ncGwToR)/float64(svGwToR))
	}
	return nil
}

// fig9 sweeps the number of deployed gateways.
func fig9(sc Scale) error {
	schemes := []string{
		harness.SchemeNoCache, harness.SchemeLocalLearning, harness.SchemeGwCache,
		harness.SchemeSwitchV2P,
	}
	pts, err := harness.GatewaySweep(sc.baseConfig("hadoop"), []int{40, 20, 10, 8, 4}, schemes)
	if err != nil {
		return err
	}
	writeCSV("fig9_gateways.csv", func(w *os.File) error { return harness.WriteGatewayCSV(w, pts) })
	tw, done := newTable("scheme", "gateways", "FCT(µs)", "first(µs)", "drops")
	defer done()
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\n", p.Scheme, p.Gateways, us(p.FCT), us(p.FirstPacket), p.Drops)
	}
	return nil
}

// fig10 rescales the topology from 1 to 32 pods.
func fig10(sc Scale) error {
	schemes := []string{
		harness.SchemeLocalLearning, harness.SchemeGwCache, harness.SchemeSwitchV2P,
	}
	base := sc.baseConfig("hadoop")
	// Keep the VM count tied to the fixed 128 servers.
	pts, err := harness.TopologySweep(base, []int{1, 2, 4, 8, 16, 32}, schemes,
		func(pods int) (harness.Config, error) {
			cfg := base
			topoCfg, err := topology.ScaledFT8(pods)
			if err != nil {
				return cfg, err
			}
			cfg.Topo = topoCfg
			return cfg, nil
		})
	if err != nil {
		return err
	}
	writeCSV("fig10_topology.csv", func(w *os.File) error { return harness.WriteTopologyCSV(w, pts) })
	tw, done := newTable("scheme", "pods", "FCT(µs)")
	defer done()
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", p.Scheme, p.Pods, us(p.FCT))
	}
	return nil
}

// table4 runs the VM-migration experiment for every row of Table 4.
func table4(sc Scale) error {
	type variant struct {
		label  string
		scheme string
		inval  bool
		tsvec  bool
	}
	variants := []variant{
		{"NoCache", harness.SchemeNoCache, true, true},
		{"OnDemand", harness.SchemeOnDemand, true, true},
		{"SwitchV2P w/o invalidations", harness.SchemeSwitchV2P, false, true},
		{"SwitchV2P w/o timestamp vector", harness.SchemeSwitchV2P, true, false},
		{"SwitchV2P w/ timestamp vector", harness.SchemeSwitchV2P, true, true},
	}
	tw, done := newTable("variant", "gwPkts", "avgLat", "lastMisArrival(µs)", "misdelivered", "invalidations")
	defer done()
	var ncLat simtime.Duration
	var ncMis int64
	var csvRows []*harness.MigrationResult
	for _, v := range variants {
		base := sc.baseConfig("hadoop")
		base.Scheme = v.scheme
		base.V2PInvalidation = &v.inval
		base.V2PTimestampVector = &v.tsvec
		mc := harness.DefaultMigrationConfig(base)
		mc.Senders = sc.MigrationSenders
		mc.TotalPackets = sc.MigrationPackets
		res, err := harness.Migration(mc)
		if err != nil {
			return err
		}
		if v.label == "NoCache" {
			ncLat = res.AvgPacketLatency
			ncMis = res.Misdelivered
		}
		latX := float64(res.AvgPacketLatency) / float64(ncLat)
		misX := float64(res.Misdelivered) / float64(ncMis)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.2fx\t%.0f\t%.1fx\t%d\n",
			v.label, 100*res.GatewayPacketShare, latX,
			float64(res.LastMisdeliveredArrival)/1000, misX, res.InvalidationPkts)
		res.Scheme = v.label
		csvRows = append(csvRows, res)
	}
	writeCSV("table4_migration.csv", func(w *os.File) error { return harness.WriteMigrationCSV(w, csvRows) })
	return nil
}

// table5 prints the per-layer cache-hit distribution for every trace.
func table5(sc Scale) error {
	tw, done := newTable("dataset", "core", "spine", "tor", "| first: core", "spine", "tor")
	defer done()
	for _, tr := range []string{"hadoop", "websearch", "alibaba", "microbursts", "video"} {
		cfg := sc.baseConfig(tr)
		cfg.Scheme = harness.SchemeSwitchV2P
		r, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		if r.CoreStats == nil {
			return fmt.Errorf("missing core stats")
		}
		tot := r.CoreStats.TotalCacheHitShare()
		fp := r.CoreStats.FirstPacketHitShare()
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			tr, 100*tot[2], 100*tot[1], 100*tot[0], 100*fp[2], 100*fp[1], 100*fp[0])
	}
	return nil
}

// table6 prints the P4 pipeline resource model.
func table6(sc Scale) error {
	u, err := p4model.Table6()
	if err != nil {
		return err
	}
	tw, done := newTable("resource", "utilization")
	defer done()
	fmt.Fprintf(tw, "Match Crossbar\t%.1f%%\n", 100*u.MatchCrossbar)
	fmt.Fprintf(tw, "Meter ALU\t%.1f%%\n", 100*u.MeterALU)
	fmt.Fprintf(tw, "Gateway\t%.1f%%\n", 100*u.Gateway)
	fmt.Fprintf(tw, "SRAM\t%.1f%%\n", 100*u.SRAM)
	fmt.Fprintf(tw, "TCAM\t%.1f%%\n", 100*u.TCAM)
	fmt.Fprintf(tw, "VLIW Instruction\t%.1f%%\n", 100*u.VLIW)
	fmt.Fprintf(tw, "Hash Bits\t%.1f%%\n", 100*u.HashBits)
	return nil
}

// controller compares the ILP controller at two refresh rates against
// SwitchV2P on WebSearch (Fig. 5c's Controller points, §A.2).
func controller(sc Scale) error {
	tw, done := newTable("scheme", "interval(µs)", "cache", "hit-rate", "FCT(µs)")
	defer done()
	for _, interval := range []simtime.Duration{150 * simtime.Microsecond, 300 * simtime.Microsecond} {
		for _, frac := range sc.Fractions {
			cfg := sc.baseConfig("websearch")
			cfg.Scheme = harness.SchemeController
			cfg.ControllerInterval = interval
			cfg.CacheFraction = frac
			r, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "Controller\t%.0f\t%g\t%.3f\t%s\n",
				interval.Micros(), frac, r.HitRate, us(r.Summary.AvgFCT))
		}
	}
	for _, frac := range sc.Fractions {
		cfg := sc.baseConfig("websearch")
		cfg.Scheme = harness.SchemeSwitchV2P
		cfg.CacheFraction = frac
		r, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "SwitchV2P\t-\t%g\t%.3f\t%s\n", frac, r.HitRate, us(r.Summary.AvgFCT))
	}
	return nil
}

// ablation toggles each SwitchV2P mechanism on the Hadoop workload
// (design-choice ablations from DESIGN.md: topology-aware collaboration
// vs the paper's §5.3 "Topology-aware caching" observation).
func ablation(sc Scale) error {
	off := false
	type variant struct {
		label string
		mod   func(*harness.Config)
	}
	variants := []variant{
		{"full", func(*harness.Config) {}},
		{"no-learning-packets", func(c *harness.Config) { c.V2PLearningPackets = &off }},
		{"no-spillover", func(c *harness.Config) { c.V2PSpillover = &off }},
		{"no-promotion", func(c *harness.Config) { c.V2PPromotion = &off }},
		{"tor-only-memory", func(c *harness.Config) { c.V2PToROnly = true }},
	}
	tw, done := newTable("variant", "hit-rate", "FCT(µs)", "first(µs)", "learnPkts", "spills", "promos")
	defer done()
	for _, v := range variants {
		cfg := sc.baseConfig("hadoop")
		cfg.Scheme = harness.SchemeSwitchV2P
		v.mod(&cfg)
		r, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		spills, promos := int64(0), int64(0)
		if r.CoreStats != nil {
			spills, promos = r.CoreStats.SpillInserted, r.CoreStats.PromoteInserted
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%s\t%d\t%d\t%d\n",
			v.label, r.HitRate, us(r.Summary.AvgFCT), us(r.Summary.AvgFirstPacket),
			r.LearningPkts, spills, promos)
	}
	return nil
}
