// Command v2plint runs the repo's determinism & correctness lint suite
// (internal/analysis/v2plint) over a set of packages.
//
// Usage:
//
//	go run ./cmd/v2plint ./...
//	go run ./cmd/v2plint -time ./...              # per-analyzer wall time on stderr
//	go run ./cmd/v2plint -jsonfile out.json ./... # also write the findings as JSON
//
// There is one mode: all requested packages are loaded into one
// Program, so a waiver is judged against the whole run's findings.
// Findings print on stdout as `file:line:col: analyzer: message`, the
// form .github/v2plint-problem-matcher.json turns into CI annotations.
//
// The exit code is 0 when the packages are clean and nonzero when any
// analyzer reports a finding. A finding can be waived with a
// `//v2plint:allow <analyzer> <reason>` comment on or directly above
// the offending line — the reason is mandatory (allowreason).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"switchv2p/internal/analysis/v2plint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var showTime bool
	var jsonFile string
	var patterns []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-time" || a == "--time":
			showTime = true
		case a == "-jsonfile" || a == "--jsonfile":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "v2plint: -jsonfile needs a path")
				return 1
			}
			i++
			jsonFile = args[i]
		case strings.HasPrefix(a, "-jsonfile="):
			jsonFile = strings.TrimPrefix(a, "-jsonfile=")
		case a == "-h" || a == "-help" || a == "--help":
			usage(stdout)
			return 0
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(stderr, "v2plint: unknown flag %s\n", a)
				usage(stderr)
				return 1
			}
			patterns = append(patterns, a)
		}
	}

	pkgs, err := v2plint.LoadPackages("", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "v2plint: %v\n", err)
		return 1
	}
	if len(pkgs) == 0 {
		return emit(nil, jsonFile, stdout, stderr)
	}
	// All loaded packages share one FileSet.
	fs := pkgs[0].Fset
	prog := v2plint.NewProgram(fs)
	if showTime {
		prog.EnableTimings()
	}
	for _, p := range pkgs {
		prog.Add(p.Files, p.Pkg, p.Info)
	}
	diags := prog.Run(v2plint.Analyzers())
	if showTime {
		printTimings(stderr, prog.Timings())
	}

	return emit(v2plint.FindingsFromDiagnostics(fs, diags), jsonFile, stdout, stderr)
}

// emit prints the findings sorted by (file, line, column, analyzer),
// writes them to jsonFile as well when one is named, and returns the
// process exit code.
func emit(findings []v2plint.Finding, jsonFile string, stdout, stderr io.Writer) int {
	v2plint.SortFindings(findings)
	if jsonFile != "" {
		if err := writeFindings(jsonFile, findings); err != nil {
			fmt.Fprintf(stderr, "v2plint: %v\n", err)
			return 1
		}
	}
	// file:line:col relative to the working directory — the format
	// .github/v2plint-problem-matcher.json turns into annotations.
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(f.File), f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "v2plint: %d finding(s)\n", len(findings))
		return 2
	}
	return 0
}

// writeFindings writes the findings to path as the indented JSON array
// CI uploads as an artifact, with paths shortened relative to the
// working directory.
func writeFindings(path string, findings []v2plint.Finding) error {
	out := make([]v2plint.Finding, 0, len(findings))
	for _, f := range findings {
		f.File = relPath(f.File)
		out = append(out, f)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTimings reports per-analyzer wall time, slowest first.
func printTimings(w io.Writer, timings map[string]time.Duration) {
	names := make([]string, 0, len(timings))
	for name := range timings {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if timings[names[i]] != timings[names[j]] {
			return timings[names[i]] > timings[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(w, "v2plint: %-14s %s\n", name, timings[name].Round(time.Microsecond))
	}
}

// relPath shortens a file path relative to the working directory for
// readable output; absolute paths are kept when outside it.
func relPath(file string) string {
	wd, err := os.Getwd()
	if err != nil {
		return file
	}
	rel, err := filepath.Rel(wd, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return rel
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: v2plint [-jsonfile path] [-time] [packages]")
	fmt.Fprintln(w, "  -jsonfile path  also write the findings to path as a JSON array (file/line/col/analyzer/message)")
	fmt.Fprintln(w, "  -time           report per-analyzer wall time on stderr")
	fmt.Fprintln(w, "\nAnalyzers:")
	for _, a := range v2plint.Analyzers() {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
}
