// Command benchsnap writes BENCH_lint.json: v2plint's wall time over the
// whole module, per analyzer, plus the finding count. scripts/ci.sh runs
// it and fails the build when a fresh run is more than 3x slower than
// the committed snapshot; committing the refreshed file records how lint
// cost moves over time. Simulator performance is not measured here — it
// is the repository benchmark's job (go run ./bench, BENCHMARK.json).
//
// The wall-clock figures vary with the host; packages, analyzers and
// findings are deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"switchv2p/internal/analysis/v2plint"
)

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

func main() {
	out := flag.String("out", ".", "directory for BENCH_lint.json")
	flag.Parse()

	lint, err := lintSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap lint: %v\n", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(lint, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "BENCH_lint.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("BENCH_lint.json: %d analyzers over %d packages in %.0fms wall, %d finding(s)\n",
		lint.Analyzers, lint.Packages, lint.WallMs, lint.Findings)
}
