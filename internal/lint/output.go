package lint

import (
	"encoding/json"
	"fmt"
	"io"
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

// jsonDiagnostic is the machine-readable finding shape for -format json.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// WriteJSON renders diagnostics as a JSON array (never null: an empty run
// emits []).
func WriteJSON(w io.Writer, diags []Diagnostic, rel func(string) string) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     rel(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
