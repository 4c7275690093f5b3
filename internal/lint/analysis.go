// Package lint implements camlint, a suite of static analyzers that enforce
// the repository's simulation invariants: the discrete-event substrate must
// stay byte-exact deterministic, error returns from simulated-hardware APIs
// must not be silently dropped, virtual time must never mix with wall-clock
// durations, and pooled objects must not be touched after release.
//
// The shape deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite could be ported to the upstream framework
// verbatim; the container this repo builds in has no module proxy access, so
// the driver, loader and fixture harness are self-contained on the standard
// library alone.
//
// One analyzer, poollife, is interprocedural: all root packages load into
// one Program whose fact store (facts.go) holds the //camlint:pool
// annotations, and whose call graph (callgraph.go) and per-function CFGs
// (cfg.go) let it follow a release across function and package boundaries.
// Analyzers that need program-wide state implement the optional Prepare
// (before any per-package Run) and Finish (after all of them) hooks.
//
// What the suite does not check is what a measurement checks better: that
// the steady state does not allocate is pinned by the AllocsPerRun ceiling
// tests of each layer (DESIGN.md §6 lists them), not by reading code.
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
	// Prepare, if set, runs once per program before any Run call, with
	// the fact store and call graph already built. Cross-package
	// summaries (release inference) belong here.
	Prepare func(*Program) error
	// Finish, if set, runs once per program after every package's Run.
	// The pass has program scope: Files and Pkg are nil, and Reportf
	// still works (positions resolve through the shared FileSet).
	Finish func(*Pass) error
}

// Program is the unit of interprocedural analysis: every root package loaded
// together, plus the facts, call graph and directive index built over them.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Ann is the annotation fact store collected from //camlint:pool
	// directives across all packages.
	Ann *Annotations
	// CG is the static call graph over every function declaration.
	CG *CallGraph

	allows *allowSet
	ran    map[string]bool // analyzer names in the current Run

	// Cross-package summaries computed by analyzer Prepare hooks. They
	// live on the Program (not in analyzer globals) so concurrent or
	// nested programs cannot trample each other.
	poolReleasers map[string]map[int]bool // funcKey → released positions (-1 = receiver)
	// annDiags holds malformed-annotation findings discovered while
	// building the fact store; they are attributed to the first analyzer
	// that runs so they surface even though no analyzer owns collection.
	annDiags []Diagnostic
}

// NewProgram assembles the analysis program over pkgs: collects annotations,
// builds the call graph, and indexes allow directives. Packages must share
// one token.FileSet (Load guarantees this).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Ann: newAnnotations(), CG: buildCallGraph(pkgs)}
	var files []*ast.File
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		files = append(files, pkg.Files...)
		pkg := pkg
		prog.Ann.collect(pkg, func(pos token.Pos, format string, args ...any) {
			prog.annDiags = append(prog.annDiags, Diagnostic{
				Analyzer: "directive",
				Pos:      pkg.Fset.Position(pos),
				Message:  fmt.Sprintf(format, args...),
			})
		})
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

// ReportFix records a finding at pos carrying a suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Run applies every analyzer to the program in order — Prepare, then
// per-package Run calls, then Finish — and returns the surviving
// diagnostics: findings on lines carrying a matching //camlint:allow
// directive (or whose preceding line carries one) are suppressed.
// Suppression usage is tracked per directive, so the unusedallow analyzer
// (which must be ordered last) sees which directives earned their keep. The
// result is sorted by file, line, column, analyzer.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	prog.ran = map[string]bool{}
	for _, a := range analyzers {
		prog.ran[a.Name] = true
	}
	out := make([]Diagnostic, 0, len(prog.annDiags))
	for _, d := range prog.annDiags {
		if !prog.allows.suppresses(d) {
			out = append(out, d)
		}
	}
	for _, a := range analyzers {
		if a.Prepare != nil {
			if err := a.Prepare(prog); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
		}
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
// go through NewProgram so interprocedural facts cross package boundaries.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewProgram([]*Package{pkg}).Run(analyzers)
}
