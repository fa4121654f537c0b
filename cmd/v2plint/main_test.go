package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"switchv2p/internal/analysis/v2plint"
)

// TestRepoIsClean is the acceptance smoke test: the whole module must
// lint clean. Any new time.Now, global-rand, or unsorted-map-range
// violation anywhere in the repo turns this test (and CI) red.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"switchv2p/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("v2plint found violations (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestJSONCleanOutput pins the clean-run contract CI relies on: a clean
// package exits 0, prints nothing on stdout, and the -jsonfile document
// is an empty JSON array (never an empty file).
func TestJSONCleanOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-jsonfile", path, "switchv2p/internal/simtime"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-jsonfile on clean package: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("findings file not written: %v", err)
	}
	if got := strings.TrimSpace(string(data)); got != "[]" {
		t.Fatalf("findings file = %q, want []", got)
	}
	if out := stdout.String(); out != "" {
		t.Fatalf("stdout = %q, want empty plain-text output on a clean run", out)
	}
}

// TestJSONFileOutput pins the -jsonfile contract CI's artifact upload
// relies on: with findings, stdout carries the problem-matcher lines and
// the file carries the same findings as JSON, both with paths relative
// to the working directory.
func TestJSONFileOutput(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "findings.json")
	findings := []v2plint.Finding{
		{File: filepath.Join(wd, "x.go"), Line: 7, Col: 3, Analyzer: "globalrand", Message: "m"},
	}
	var stdout, stderr bytes.Buffer
	if code := emit(findings, path, &stdout, &stderr); code != 2 {
		t.Fatalf("emit with findings: exit %d, want 2", code)
	}
	if got, want := stdout.String(), "x.go:7:3: globalrand: m\n"; got != want {
		t.Fatalf("stdout = %q, want %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("findings file not written: %v", err)
	}
	var decoded []v2plint.Finding
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("findings file: %v", err)
	}
	want := v2plint.Finding{File: "x.go", Line: 7, Col: 3, Analyzer: "globalrand", Message: "m"}
	if len(decoded) != 1 || decoded[0] != want {
		t.Fatalf("findings file = %+v, want [%+v]", decoded, want)
	}
}

// TestEmitGloballySorted pins the output-ordering contract: findings
// are rendered sorted by (file, line, column, analyzer) across
// packages, in both the plain-text output and the -jsonfile document,
// whatever order the analysis produced them in.
func TestEmitGloballySorted(t *testing.T) {
	unsorted := []v2plint.Finding{
		{File: "/b/late.go", Line: 3, Col: 1, Analyzer: "wallclock", Message: "m4"},
		{File: "/a/early.go", Line: 10, Col: 2, Analyzer: "detrange", Message: "m2"},
		{File: "/a/early.go", Line: 10, Col: 2, Analyzer: "allowreason", Message: "m1"},
		{File: "/a/early.go", Line: 10, Col: 9, Analyzer: "globalrand", Message: "m3"},
	}
	path := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	if code := emit(unsorted, path, &stdout, &stderr); code != 2 {
		t.Fatalf("emit with findings: exit %d, want 2", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, line[strings.LastIndex(line, "m"):])
	}
	want := []string{"m1", "m2", "m3", "m4"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("text output order = %v, want %v", got, want)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("findings file not written: %v", err)
	}
	var decoded []v2plint.Finding
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("findings file: %v", err)
	}
	if len(decoded) != len(want) {
		t.Fatalf("findings file holds %d findings, want %d", len(decoded), len(want))
	}
	for i, f := range decoded {
		if f.Message != want[i] {
			t.Fatalf("findings file order: got %s at %d, want %s", f.Message, i, want[i])
		}
	}
}

// TestUnknownFlag pins the driver's flag surface: only -jsonfile and
// -time exist. The retired -fix and -json flags, the cache flags and
// vet unit-checker probes are rejected like any other unknown flag.
func TestUnknownFlag(t *testing.T) {
	for _, flag := range []string{"-bogus", "-fix", "-json", "-cache", "-cachedir=x", "-V=full", "-flags"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", flag, code)
		}
		if !strings.Contains(stderr.String(), "unknown flag") {
			t.Errorf("%s: stderr %q does not mention an unknown flag", flag, stderr.String())
		}
	}
}
