package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

func baselineDiag(analyzer, file string, line int, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  msg,
	}
}

// TestBaselineRoundTrip mirrors the -update-baseline workflow: accept the
// current findings, write the file, load it back, and verify the same
// findings (even after lines shift) are absorbed while new ones survive.
func TestBaselineRoundTrip(t *testing.T) {
	ident := func(s string) string { return s }
	diags := []Diagnostic{
		baselineDiag("hotalloc", "internal/a.go", 10, "make allocates"),
		baselineDiag("hotalloc", "internal/a.go", 20, "make allocates"), // same message, folded into count
		baselineDiag("dettaint", "internal/b.go", 5, "tainted value"),
	}
	b := NewBaseline(diags, ident)
	if len(b.Findings) != 2 {
		t.Fatalf("NewBaseline folded to %d entries, want 2", len(b.Findings))
	}

	path := filepath.Join(t.TempDir(), "lint_baseline.json")
	if err := b.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}

	if fresh := loaded.Filter(diags, ident); len(fresh) != 0 {
		t.Errorf("baseline did not absorb its own findings: %v", fresh)
	}

	// Lines are informational: shifted findings still match.
	shifted := []Diagnostic{
		baselineDiag("hotalloc", "internal/a.go", 99, "make allocates"),
		baselineDiag("dettaint", "internal/b.go", 1, "tainted value"),
	}
	if fresh := loaded.Filter(shifted, ident); len(fresh) != 0 {
		t.Errorf("line shift invalidated the baseline: %v", fresh)
	}

	// A third occurrence of a count-2 entry, and a brand-new finding, are new.
	extra := append(diags,
		baselineDiag("hotalloc", "internal/a.go", 30, "make allocates"),
		baselineDiag("poollife", "internal/c.go", 7, "use after release"),
	)
	fresh := loaded.Filter(extra, ident)
	if len(fresh) != 2 {
		t.Fatalf("Filter(extra) = %d fresh findings, want 2: %v", len(fresh), fresh)
	}
}

// TestBaselineMissingFile: no baseline means nothing is accepted.
func TestBaselineMissingFile(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("LoadBaseline(missing) = %v, want empty baseline", err)
	}
	d := []Diagnostic{baselineDiag("hotalloc", "a.go", 1, "m")}
	if fresh := b.Filter(d, func(s string) string { return s }); len(fresh) != 1 {
		t.Errorf("empty baseline absorbed a finding: %v", fresh)
	}
}

// TestRelTo pins the path rewriting used for baseline and rendered output.
func TestRelTo(t *testing.T) {
	dir := t.TempDir()
	rel := RelTo(dir)
	if got := rel(filepath.Join(dir, "internal", "a.go")); got != "internal/a.go" {
		t.Errorf("rel(inside) = %q, want internal/a.go", got)
	}
	if got := rel("/somewhere/else.go"); got != "/somewhere/else.go" {
		t.Errorf("rel(outside) = %q, want unchanged", got)
	}
}
