package v2plint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixFile registers a real file with the FileSet so ApplyFixes (which
// rereads from disk) sees it, and returns its token.File.
func fixFile(t *testing.T, content string) (*token.FileSet, *token.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.go")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	tf := fset.AddFile(path, -1, len(content))
	tf.SetLinesForContent([]byte(content))
	return fset, tf
}

func diagWithEdits(analyzer string, edits ...TextEdit) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Message:  "test finding",
		Fixes:    []SuggestedFix{{Message: "test fix", Edits: edits}},
	}
}

func TestApplyFixesInsertReplaceDelete(t *testing.T) {
	const src = "alpha beta gamma\n"
	fset, tf := fixFile(t, src)
	at := func(off int) token.Pos { return tf.Pos(off) }
	diags := []Diagnostic{
		// Insert at start, replace "beta" with "BETA", delete " gamma".
		diagWithEdits("a", TextEdit{Pos: at(0), NewText: []byte(">> ")}),
		diagWithEdits("b", TextEdit{Pos: at(6), End: at(10), NewText: []byte("BETA")}),
		diagWithEdits("c", TextEdit{Pos: at(10), End: at(16)}),
	}
	fixed, err := ApplyFixes(fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("fixed %d files, want 1", len(fixed))
	}
	for _, got := range fixed {
		if want := ">> alpha BETA\n"; string(got) != want {
			t.Fatalf("fixed = %q, want %q", got, want)
		}
	}
}

func TestApplyFixesAdjacentSameLineEdits(t *testing.T) {
	// Two replacements on one line, the second starting exactly where
	// the first ends, must both apply: adjacency is not overlap.
	const src = "alpha beta gamma\n"
	fset, tf := fixFile(t, src)
	at := func(off int) token.Pos { return tf.Pos(off) }
	diags := []Diagnostic{
		diagWithEdits("a", TextEdit{Pos: at(6), End: at(10), NewText: []byte("BETA")}),
		diagWithEdits("b", TextEdit{Pos: at(10), End: at(16), NewText: []byte("/GAMMA")}),
	}
	fixed, err := ApplyFixes(fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range fixed {
		if want := "alpha BETA/GAMMA\n"; string(got) != want {
			t.Fatalf("fixed = %q, want %q", got, want)
		}
	}
}

func TestApplyFixesInsertionAtReplacementStart(t *testing.T) {
	// A pure insertion (empty range) at the offset where a replacement
	// begins is unambiguous — the insertion applies first — and must be
	// accepted in either input order.
	const src = "alpha beta gamma\n"
	fset, tf := fixFile(t, src)
	at := func(off int) token.Pos { return tf.Pos(off) }
	const want = "alpha >>BETA gamma\n"
	for name, diags := range map[string][]Diagnostic{
		"insertion first": {
			diagWithEdits("a", TextEdit{Pos: at(6), NewText: []byte(">>")}),
			diagWithEdits("b", TextEdit{Pos: at(6), End: at(10), NewText: []byte("BETA")}),
		},
		"replacement first": {
			diagWithEdits("b", TextEdit{Pos: at(6), End: at(10), NewText: []byte("BETA")}),
			diagWithEdits("a", TextEdit{Pos: at(6), NewText: []byte(">>")}),
		},
	} {
		fixed, err := ApplyFixes(fset, diags)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, got := range fixed {
			if string(got) != want {
				t.Fatalf("%s: fixed = %q, want %q", name, got, want)
			}
		}
	}
}

func TestApplyFixesRejectsSameStartReplacements(t *testing.T) {
	const src = "alpha beta gamma\n"
	fset, tf := fixFile(t, src)
	diags := []Diagnostic{
		diagWithEdits("a", TextEdit{Pos: tf.Pos(6), End: tf.Pos(10), NewText: []byte("x")}),
		diagWithEdits("b", TextEdit{Pos: tf.Pos(6), End: tf.Pos(8), NewText: []byte("y")}),
	}
	if _, err := ApplyFixes(fset, diags); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("same-start replacements: err = %v, want overlap error", err)
	}
}

func TestApplyFixesRejectsOverlap(t *testing.T) {
	const src = "alpha beta gamma\n"
	fset, tf := fixFile(t, src)
	diags := []Diagnostic{
		diagWithEdits("a", TextEdit{Pos: tf.Pos(0), End: tf.Pos(8), NewText: []byte("x")}),
		diagWithEdits("b", TextEdit{Pos: tf.Pos(4), End: tf.Pos(12), NewText: []byte("y")}),
	}
	if _, err := ApplyFixes(fset, diags); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("overlapping edits: err = %v, want overlap error", err)
	}
}

func TestApplyFixesRejectsSameOffsetInsertions(t *testing.T) {
	const src = "alpha\n"
	fset, tf := fixFile(t, src)
	diags := []Diagnostic{
		diagWithEdits("a", TextEdit{Pos: tf.Pos(2), NewText: []byte("x")}),
		diagWithEdits("b", TextEdit{Pos: tf.Pos(2), NewText: []byte("y")}),
	}
	if _, err := ApplyFixes(fset, diags); err == nil {
		t.Fatal("same-offset insertions: want error (relative order is ambiguous)")
	}
}

func TestApplyFixesIgnoresFixlessDiagnostics(t *testing.T) {
	fset := token.NewFileSet()
	fixed, err := ApplyFixes(fset, []Diagnostic{{Analyzer: "a", Message: "no fix"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 0 {
		t.Fatalf("fixed %d files, want 0", len(fixed))
	}
}
