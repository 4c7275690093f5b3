package camsim

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// determinismExemptions are the only places a determinism rule may fire:
// host-side code whose result never reaches the simulation or stdout. A row
// covers every finding of its rule in one top-level function of one file (a
// closure counts as the function it sits in). A row that covers nothing
// fails TestDeterminismRules, so the table cannot outlive its reasons.
var determinismExemptions = []exemption{
	{"internal/harness/parallel.go", "RunAll", "wallclock", "Progress.Wall is host-side progress reporting; never feeds the simulation"},
	{"cmd/camkv/main.go", "run", "wallclock", "per-backend wall time goes to stderr only; never feeds the simulation"},
}

type exemption struct{ file, fn, rule, reason string }

// finding is one rule firing: where, in which top-level function, and why.
type finding struct {
	file, fn, rule, msg string
	line                int
}

// wallClockFuncs are the package-level time functions that read or wait on
// the host clock; time.Duration and time.Time stay usable as plain types.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// TestDeterminismRules type-checks every non-test package of the module
// (bench/, a module of its own, and testdata excluded) and fails on any
// finding the exemption table does not cover. The rules keep identically
// seeded runs byte-identical — DESIGN.md §5 lists them:
//
//   - wallclock: a host-clock read (time.Now, time.Since, timers, sleeps);
//     virtual time is sim.Engine.Now.
//   - pointerfmt: fmt.Sprint* of a pointer or with %p; addresses differ
//     between runs, so a name built from one does too.
//   - droppederr: a call statement (go and defer included) that drops the
//     error a camsim function returns; a store read or a verification that
//     fails must not pass for one that succeeded. `_ =` is an explicit,
//     reviewable discard and passes.
//   - quickrand: a testing/quick Check or CheckEqual whose config is not a
//     &quick.Config literal with a Rand, so the inputs would come from the
//     clock; this one rule also reads the test files.
//   - globalset: an assignment (or ++/--), outside an init function, to a
//     package-level variable of the module (x or pkg.X); a run's settings
//     travel in its configs, so concurrent runs cannot see each other's.
//
// The subtests run each rule on a snippet where it must fire and on one
// where it must stay quiet, and check that an unmatched exemption is caught.
func TestDeterminismRules(t *testing.T) {
	c, pkgs := checkedModule(t)
	var found []finding
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			found = append(found, c.findings(pkg, f)...)
		}
	}
	for _, f := range c.testFiles {
		found = append(found, c.quickRandFindings(f)...)
	}
	kept, unused := exempt(found, determinismExemptions)
	for _, f := range kept {
		t.Errorf("%s:%d: [%s] %s", f.file, f.line, f.rule, f.msg)
	}
	for _, e := range unused {
		t.Errorf("exemption {%s, %s, %s} matches no finding: delete it", e.file, e.fn, e.rule)
	}

	snippets := []struct {
		name, src string
		want      string // rule expected to fire; "" for none
	}{
		{"wall clock read", `import "time"; func f() int64 { return time.Now().UnixNano() }`, "wallclock"},
		{"timer", `import "time"; func f() { <-time.After(time.Second) }`, "wallclock"},
		{"duration arithmetic", `import "time"; func f(d time.Duration) float64 { return (d + time.Millisecond).Seconds() }`, ""},
		{"%p name", `import "fmt"; func f(b *[4]byte) string { return fmt.Sprintf("buf.%p", b) }`, "pointerfmt"},
		{"pointer operand", `import "fmt"; func f(b *[4]byte) string { return fmt.Sprint("buf.", b) }`, "pointerfmt"},
		{"value name", `import "fmt"; func f(b *[4]byte) string { return fmt.Sprintf("buf.%d", b[0]) }`, ""},
		{"dropped error", `import "camsim/internal/fault"; func f() { fault.ParseSpec("off") }`, "droppederr"},
		{"deferred dropped error", `import "camsim/internal/fault"; func f() { defer fault.ParseSpec("off") }`, "droppederr"},
		{"discarded error", `import ("fmt"; "camsim/internal/fault"); func f() { _, _ = fault.ParseSpec("off"); fmt.Println() }`, ""},
		{"quick without config", `import "testing/quick"; func f() error { return quick.Check(func(int) bool { return true }, nil) }`, "quickrand"},
		{"quick without Rand", `import q "testing/quick"; func f() error { return q.CheckEqual(func(int) int { return 0 }, func(int) int { return 0 }, &q.Config{MaxCount: 9}) }`, "quickrand"},
		{"quick config variable", `import "testing/quick"; var c = &quick.Config{}; func f() error { return quick.Check(func(int) bool { return true }, c) }`, "quickrand"},
		{"quick with Rand", `import ("math/rand"; "testing/quick"); func f() error { return quick.Check(func(int) bool { return true }, &quick.Config{Rand: rand.New(rand.NewSource(1))}) }`, ""},
		{"global set", `var plan *int; func f(p *int) { plan = p }`, "globalset"},
		{"qualified global set", `import "camsim/internal/harness"; func f() { harness.KVSystems = nil }`, "globalset"},
		{"global counted", `var n int; func f() { n++ }`, "globalset"},
		{"global set in init", `var n int; func init() { n = 1 }`, ""},
		{"local and element set", `var m = map[int]int{}; func f() { n := 1; n = 2; m[n] = n }`, ""},
	}
	for _, s := range snippets {
		t.Run(s.name, func(t *testing.T) {
			fs := c.snippet(t, s.src)
			var rules []string
			for _, f := range fs {
				rules = append(rules, f.rule)
			}
			if got := strings.Join(rules, ","); got != s.want {
				t.Errorf("fired %q, want %q on:\n%s", got, s.want, s.src)
			}
		})
	}
	t.Run("unmatched exemption", func(t *testing.T) {
		fs := c.snippet(t, `import "time"; func f() { time.Sleep(1) }`)
		kept, unused := exempt(fs, []exemption{{"snippet.go", "f", "wallclock", ""}, {"snippet.go", "g", "wallclock", ""}})
		if len(kept) != 0 || len(unused) != 1 || unused[0].fn != "g" {
			t.Errorf("kept %v, unused %v; want nothing kept and exemption g unused", kept, unused)
		}
	})
}

// exempt splits findings into those no exemption covers and returns, with
// them, every exemption that covered nothing.
func exempt(found []finding, table []exemption) (kept []finding, unused []exemption) {
	used := make([]bool, len(table))
	for _, f := range found {
		covered := false
		for i, e := range table {
			if e.file == f.file && e.fn == f.fn && e.rule == f.rule {
				used[i], covered = true, true
			}
		}
		if !covered {
			kept = append(kept, f)
		}
	}
	for i, e := range table {
		if !used[i] {
			unused = append(unused, e)
		}
	}
	return kept, unused
}

// moduleChecker type-checks the module's packages from source, each once and
// in dependency order: a camsim import is checked when first imported, and
// anything else is the standard library, checked from GOROOT source. The
// test files are parsed, not checked.
type moduleChecker struct {
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*checkedPkg
	testFiles []*ast.File
}

var module struct {
	once sync.Once
	c    *moduleChecker
	pkgs []*checkedPkg
	err  error
}

// checkedModule type-checks every non-test package of the module (bench/, a
// module of its own, and testdata excluded) and parses its test files, once
// per test binary.
func checkedModule(t *testing.T) (*moduleChecker, []*checkedPkg) {
	module.once.Do(func() {
		c := newModuleChecker()
		module.c = c
		module.err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			tests, _ := filepath.Glob(filepath.Join(path, "*_test.go"))
			for _, name := range tests {
				f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				c.testFiles = append(c.testFiles, f)
			}
			imp := "camsim"
			if path != "." {
				imp += "/" + filepath.ToSlash(path)
			}
			pkg, err := c.check(imp)
			if pkg != nil {
				module.pkgs = append(module.pkgs, pkg)
			}
			return err
		})
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.c, module.pkgs
}

type checkedPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newModuleChecker() *moduleChecker {
	fset := token.NewFileSet()
	return &moduleChecker{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPkg{}}
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if path != "camsim" && !strings.HasPrefix(path, "camsim/") {
		return c.std.Import(path)
	}
	p, err := c.check(path)
	if p == nil && err == nil {
		return nil, os.ErrNotExist
	}
	return p.types, err
}

// check type-checks the package at import path, or returns nil if its
// directory holds no non-test Go file for this build.
func (c *moduleChecker) check(path string) (*checkedPkg, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "camsim")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	p := &checkedPkg{files: files, info: newInfo()}
	c.pkgs[path] = p
	p.types, err = (&types.Config{Importer: c}).Check(path, c.fset, files, p.info)
	return p, err
}

// snippet type-checks src as the one file of a package under internal/ and
// returns what the rules find in it.
func (c *moduleChecker) snippet(t *testing.T, src string) []finding {
	t.Helper()
	f, err := parser.ParseFile(c.fset, "snippet.go", "package snippet; "+src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &checkedPkg{files: []*ast.File{f}, info: newInfo()}
	if _, err := (&types.Config{Importer: c}).Check("camsim/internal/snippet", c.fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	return c.findings(p, f)
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// findings applies every rule to one file.
func (c *moduleChecker) findings(p *checkedPkg, f *ast.File) []finding {
	var out []finding
	fn := ""
	report := func(n ast.Node, rule, msg string) {
		pos := c.fset.Position(n.Pos())
		out = append(out, finding{filepath.ToSlash(pos.Filename), fn, rule, msg, pos.Line})
	}
	dropped := func(call *ast.CallExpr) {
		if obj := camsimErrFunc(p.info, call); obj != nil {
			report(call, "droppederr", "the error of "+obj.Pkg().Name()+"."+obj.Name()+" is dropped; handle it or discard it with _ =")
		}
	}
	globalSet := func(lhs ast.Expr) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			lhs = sel.Sel
		}
		id, _ := lhs.(*ast.Ident)
		if v, ok := p.info.Uses[id].(*types.Var); ok && fn != "init" && v.Parent() == v.Pkg().Scope() &&
			(v.Pkg().Path() == "camsim" || strings.HasPrefix(v.Pkg().Path(), "camsim/")) {
			report(lhs, "globalset", "sets package-level "+v.Pkg().Name()+"."+v.Name()+"; pass the setting in a config instead")
		}
	}
	out = append(out, c.quickRandFindings(f)...)
	for _, decl := range f.Decls {
		fn = ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := p.info.Uses[n.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
					obj.Type().(*types.Signature).Recv() == nil && wallClockFuncs[obj.Name()] {
					report(n, "wallclock", "time."+obj.Name()+" reads the host clock; use the virtual clock (sim.Engine.Now)")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					globalSet(lhs)
				}
			case *ast.IncDecStmt:
				globalSet(n.X)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					dropped(call)
				}
			case *ast.GoStmt:
				dropped(n.Call)
			case *ast.DeferStmt:
				dropped(n.Call)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Sprint") {
					if obj, ok := p.info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && formatsPointer(p.info, n) {
						report(n, "pointerfmt", "fmt."+obj.Name()+" formats a pointer, which differs between runs; name by a stable value")
					}
				}
			}
			return true
		})
	}
	return out
}

// quickRandFindings is the quickrand rule on one file, read from its syntax
// alone: a call of the file's testing/quick import's Check or CheckEqual
// must pass, as its last argument, a &quick.Config literal that sets Rand.
func (c *moduleChecker) quickRandFindings(f *ast.File) []finding {
	quick := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"testing/quick"` {
			quick = "quick"
			if imp.Name != nil {
				quick = imp.Name.Name
			}
		}
	}
	if quick == "" {
		return nil
	}
	var out []finding
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Check" && sel.Sel.Name != "CheckEqual" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != quick {
				return true
			}
			if !setsRand(call.Args[len(call.Args)-1]) {
				pos := c.fset.Position(call.Pos())
				out = append(out, finding{filepath.ToSlash(pos.Filename), fn, "quickrand",
					"quick." + sel.Sel.Name + " draws its inputs from the clock; pass &quick.Config{..., Rand: rand.New(rand.NewSource(seed))}", pos.Line})
			}
			return true
		})
	}
	return out
}

// setsRand reports whether cfg is a &quick.Config literal with a Rand field.
func setsRand(cfg ast.Expr) bool {
	u, ok := cfg.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	lit, ok := u.X.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
				return true
			}
		}
	}
	return false
}

// camsimErrFunc returns the function call invokes if it is a camsim function
// with an error result, and nil otherwise.
func camsimErrFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", "camsim/") {
		return nil
	}
	res := obj.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return obj
		}
	}
	return nil
}

// formatsPointer reports whether a fmt.Sprint* call has %p in a constant
// format string or a pointer among its operands.
func formatsPointer(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv := info.Types[arg]
		if s := tv.Value; s != nil && strings.Contains(s.ExactString(), "%p") {
			return true
		}
		if tv.Type == nil {
			continue
		}
		switch u := tv.Type.Underlying().(type) {
		case *types.Pointer:
			return true
		case *types.Basic:
			if u.Kind() == types.UnsafePointer {
				return true
			}
		}
	}
	return false
}
