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

// TestJSONCleanOutput pins the machine-readable contract ci.sh relies
// on: a clean run with -json prints an empty JSON array (never empty
// output) and exits 0.
func TestJSONCleanOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "switchv2p/internal/simtime"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-json on clean package: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("-json clean output = %q, want []", got)
	}
}

// TestJSONFileOutput pins the -jsonfile contract CI's artifact upload
// relies on: the JSON array goes to the file while stdout stays in
// plain-text (problem-matcher) format.
func TestJSONFileOutput(t *testing.T) {
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

// TestEmitGloballySorted pins the output-ordering contract: findings
// are rendered sorted by (file, line, column, analyzer) across
// packages, in both the plain-text and JSON formats, whatever order
// the analysis produced them in.
func TestEmitGloballySorted(t *testing.T) {
	unsorted := []v2plint.Finding{
		{File: "/b/late.go", Line: 3, Col: 1, Analyzer: "wallclock", Message: "m4"},
		{File: "/a/early.go", Line: 10, Col: 2, Analyzer: "detrange", Message: "m2"},
		{File: "/a/early.go", Line: 10, Col: 2, Analyzer: "allowreason", Message: "m1"},
		{File: "/a/early.go", Line: 10, Col: 9, Analyzer: "globalrand", Message: "m3"},
	}
	var stdout, stderr bytes.Buffer
	if code := emit(append([]v2plint.Finding(nil), unsorted...), false, "", &stdout, &stderr); code != 2 {
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

	stdout.Reset()
	if code := emit(append([]v2plint.Finding(nil), unsorted...), true, "", &stdout, &stderr); code != 2 {
		t.Fatalf("emit -json with findings: exit %d, want 2", code)
	}
	var decoded []v2plint.Finding
	if err := json.Unmarshal(stdout.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	for i, f := range decoded {
		if f.Message != want[i] {
			t.Fatalf("json output order: got %s at %d, want %s", f.Message, i, want[i])
		}
	}
}

// TestUnknownFlag pins the driver's flag surface: only -json,
// -jsonfile, -fix and -time exist. The retired cache flags and vet
// unit-checker probes are rejected like any other unknown flag.
func TestUnknownFlag(t *testing.T) {
	for _, flag := range []string{"-bogus", "-cache", "-cachedir=x", "-V=full", "-flags"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", flag, code)
		}
		if !strings.Contains(stderr.String(), "unknown flag") {
			t.Errorf("%s: stderr %q does not mention an unknown flag", flag, stderr.String())
		}
	}
}
