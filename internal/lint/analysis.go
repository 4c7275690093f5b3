// Package lint implements camlint, a suite of static analyzers that enforce
// the repository's simulation invariants: the discrete-event substrate must
// stay byte-exact deterministic, error returns from simulated-hardware APIs
// must not be silently dropped, and virtual time must never mix with
// wall-clock durations.
//
// The shape deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite could be ported to the upstream framework
// verbatim; the container this repo builds in has no module proxy access, so
// the driver, loader and fixture harness are self-contained on the standard
// library alone.
//
// Every analyzer works on one package at a time. All root packages still
// load into one Program, so the allow directives are indexed across all of
// them and unusedallow's Finish hook audits them after every other analyzer
// has run.
//
// What the suite does not check is what the code checks better at run time:
// sim.FreeList catches a pooled record used after it was put back in every
// test binary, and the AllocsPerRun ceiling tests of each layer (DESIGN.md
// §6 lists them) catch a steady state that allocates.
//
// Suppressions use line directives:
//
//	x := time.Now() //camlint:allow nodeterminism -- startup banner only
//
// A directive on the flagged line (or the line directly above) suppresses
// matching diagnostics; see directive.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one camlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //camlint:allow directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to a single package. Optional for
	// analyzers that work entirely at program scope.
	Run func(*Pass) error
	// Finish, if set, runs once per program after every package's Run.
	// The pass has program scope: Files and Pkg are nil, and Reportf
	// still works (positions resolve through the shared FileSet).
	Finish func(*Pass) error
}

// Program is every root package loaded together, plus the index of the
// allow directives in them.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	allows *allowSet
	ran    map[string]bool // analyzer names in the current Run
}

// NewProgram assembles the analysis program over pkgs and indexes their
// directives. Packages must share one token.FileSet (Load guarantees this).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs}
	var files []*ast.File
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		files = append(files, pkg.Files...)
	}
	prog.allows = collectAllows(prog.Fset, files)
	return prog
}

// Ran reports whether the named analyzer is part of the current Run — used
// by unusedallow to skip directives whose analyzer did not execute.
func (prog *Program) Ran(name string) bool { return prog.ran[name] }

// Pass holds one analyzer's view of one package (or, for Finish hooks, of
// the whole program, with Files and Pkg nil). A Pass is valid only for the
// duration of one Run or Finish call.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the enclosing program; never nil, even under the
	// single-package Run entry point.
	Prog *Program

	diags []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Fix, when non-empty, is a human-readable suggested fix rendered
	// beneath the finding in text output.
	Fix string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to the program in order — per-package Run
// calls, then Finish — and returns the surviving diagnostics: findings on
// lines carrying a matching //camlint:allow directive (or whose preceding
// line carries one) are suppressed. Suppression usage is tracked per
// directive, so the unusedallow analyzer (which must be ordered last) sees
// which directives earned their keep. Malformed directives are reported
// whichever analyzers run. The result is sorted by file, line, column,
// analyzer.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	prog.ran = map[string]bool{}
	for _, a := range analyzers {
		prog.ran[a.Name] = true
	}
	out := append([]Diagnostic(nil), prog.allows.malformed...)
	for _, a := range analyzers {
		var diags []Diagnostic
		if a.Run != nil {
			for _, pkg := range prog.Pkgs {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					Prog:     prog,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
				}
				diags = append(diags, pass.diags...)
			}
		}
		if a.Finish != nil {
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Prog: prog}
			if err := a.Finish(pass); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
			diags = append(diags, pass.diags...)
		}
		// Filter this analyzer's findings immediately: later analyzers
		// (unusedallow) depend on the usage marks suppression leaves
		// behind. unusedallow itself is exempt from filtering: its reports
		// point at the directives, and a bare directive must not be able
		// to suppress its own staleness report.
		for _, d := range diags {
			if a.Name != UnusedAllow.Name && prog.allows.suppresses(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i], out[j]
		if di.Pos.Filename != dj.Pos.Filename {
			return di.Pos.Filename < dj.Pos.Filename
		}
		if di.Pos.Line != dj.Pos.Line {
			return di.Pos.Line < dj.Pos.Line
		}
		if di.Pos.Column != dj.Pos.Column {
			return di.Pos.Column < dj.Pos.Column
		}
		return di.Analyzer < dj.Analyzer
	})
	return out, nil
}

// Run applies analyzers to a single package, treating it as a one-package
// program. It is the entry point the fixture harness uses; whole-repo runs
// go through NewProgram.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewProgram([]*Package{pkg}).Run(analyzers)
}
