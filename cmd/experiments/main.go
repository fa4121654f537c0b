// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) and prints the same rows/series the paper
// reports. Absolute numbers differ from the paper (different substrate),
// but the shapes — who wins, by what rough factor, where crossovers
// fall — are reproduced.
//
// Usage:
//
//	experiments -exp fig5a            # one experiment
//	experiments -exp all              # everything
//	experiments -exp fig5a -scale quick|standard|full
//	experiments -scenario production-day   # long-horizon scenario (internal/scenario)
//
// Independent simulations run through harness.RunAll on GOMAXPROCS CPUs
// at once; the output is the same at any GOMAXPROCS. With -csv, a file
// that cannot be written fails the experiment.
//
// Experiments: table3 fig5a fig5b fig5c fig5d fig6 fig7 fig8 fig9 fig10
// table4 table5 table6 controller. Scenarios (multi-phase operational
// runs with per-phase SLO tables, not part of "all"): production-day.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"switchv2p/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table3, fig5a..fig5d, fig6..fig10, table4..table6, controller, ablation, all)")
	scen := flag.String("scenario", "", "run a long-horizon operational scenario instead of -exp (production-day)")
	scaleName := flag.String("scale", "standard", "quick | standard | full")
	seed := flag.Int64("seed", 1, "random seed")
	flag.StringVar(&csvDir, "csv", "", "also write plot-ready CSV files into this directory")
	profiles := prof.Register()
	flag.Parse()
	defer profiles.Start()()

	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick|standard|full)\n", *scaleName)
		os.Exit(2)
	}
	sc.Seed = *seed

	// Scenarios are long-horizon multi-phase runs (internal/scenario);
	// they are separate from -exp and never part of "all".
	if *scen != "" {
		fn, ok := scenarios[*scen]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (production-day)\n", *scen)
			os.Exit(2)
		}
		fmt.Printf("\n=== scenario %s (scale=%s) ===\n", *scen, *scaleName)
		t0 := time.Now()
		if err := fn(sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *scen, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n", *scen, time.Since(t0).Round(time.Millisecond))
		return
	}

	runners := []struct {
		id  string
		fn  func(sc Scale) error
		doc string
	}{
		{"table3", table3, "topology characteristics"},
		{"fig5a", func(s Scale) error { return fig5(s, "hadoop") }, "Hadoop sweep (FT8-10K)"},
		{"fig5b", func(s Scale) error { return fig5(s, "microbursts") }, "Microbursts sweep (FT8-10K)"},
		{"fig5c", func(s Scale) error { return fig5(s, "websearch") }, "WebSearch sweep (FT8-10K)"},
		{"fig5d", func(s Scale) error { return fig5(s, "video") }, "Video sweep (FT8-10K)"},
		{"fig6", fig6, "Alibaba sweep (FT16-400K)"},
		{"fig7", fig7, "per-pod processed bytes (Hadoop @50%)"},
		{"fig8", fig8, "pod-8 per-switch bytes (Hadoop @50%)"},
		{"fig9", fig9, "fewer gateways (Hadoop @50%)"},
		{"fig10", fig10, "topology scaling (Hadoop @50%)"},
		{"table4", table4, "VM migration overheads"},
		{"table5", table5, "cache-hit distribution by layer"},
		{"table6", table6, "P4 per-stage resource utilization"},
		{"controller", controller, "centralized ILP controller (WebSearch)"},
		{"ablation", ablation, "SwitchV2P mechanism ablations (Hadoop @50%)"},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.id {
			continue
		}
		ran = true
		fmt.Printf("\n=== %s: %s (scale=%s) ===\n", r.id, r.doc, *scaleName)
		t0 := time.Now()
		if err := r.fn(sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n", r.id, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
