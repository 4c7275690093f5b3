package lint

import (
	"path/filepath"
	"testing"
)

// TestRelTo pins the path rewriting used for rendered output.
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
