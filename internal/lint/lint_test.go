package lint_test

import (
	"testing"

	"camsim/internal/lint"
	"camsim/internal/lint/linttest"
)

func TestNoDeterminism(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoDeterminism, "nodeterminism")
}

func TestNoDeterminismMapIteration(t *testing.T) {
	linttest.Run(t, "testdata", lint.NoDeterminism, "camsim/internal/simfix")
}

func TestErrCheckSim(t *testing.T) {
	linttest.Run(t, "testdata", lint.ErrCheckSim, "errchecksim")
}

func TestEventTime(t *testing.T) {
	linttest.Run(t, "testdata", lint.EventTime, "eventtime")
}

// TestUnusedAllow runs the full suite: unusedallow judges directives by the
// suppression marks every other analyzer leaves behind, so it only behaves
// fully when all of them ran.
func TestUnusedAllow(t *testing.T) {
	linttest.RunAnalyzers(t, "testdata", lint.All(), "unusedallow")
}

// TestLoadRepo exercises the production loader end-to-end on a real module
// package: type-checking camsim/internal/sim from source with dependencies
// resolved through `go list -export` must produce a clean package.
func TestLoadRepo(t *testing.T) {
	pkgs, err := lint.Load(".", "camsim/internal/sim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "camsim/internal/sim" {
		t.Fatalf("Load returned %d packages, want exactly camsim/internal/sim", len(pkgs))
	}
	diags, err := lint.Run(pkgs[0], lint.All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in clean package: %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
}
