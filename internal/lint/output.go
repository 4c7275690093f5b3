package lint

import (
	"fmt"
	"io"
	"path/filepath"
)

// WriteText renders diagnostics in the classic compiler-style line format,
// with the suggested fix (when present) indented beneath each finding.
func WriteText(w io.Writer, diags []Diagnostic, rel func(string) string) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
			rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if d.Fix != "" {
			fmt.Fprintf(w, "\tfix: %s\n", d.Fix)
		}
	}
}

// RelTo returns a filename rewriter that makes paths relative to dir (the
// repo root) with forward slashes, leaving paths outside dir untouched.
func RelTo(dir string) func(string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return func(name string) string {
		r, err := filepath.Rel(abs, name)
		if err != nil || r == name || filepath.IsAbs(r) || len(r) >= 2 && r[:2] == ".." {
			return filepath.ToSlash(name)
		}
		return filepath.ToSlash(r)
	}
}
