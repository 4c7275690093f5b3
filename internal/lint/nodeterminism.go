package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// NoDeterminism forbids the four sources of run-to-run drift in a
// discrete-event simulator:
//
//  1. wall-clock reads (time.Now, time.Since, timers, sleeps) anywhere in
//     the module — virtual time comes from sim.Engine.Now, and the few
//     legitimate wall-clock uses in cmd/ must carry //camlint:allow;
//  2. math/rand (v1 or v2) — streams change across Go releases, which is
//     why internal/sim hand-rolls xoshiro256**; use sim.RNG;
//  3. map iteration in simulation-critical packages (internal/...), where
//     Go's randomized order can reorder events, reorder float additions,
//     or reorder output rows. Sort the keys first, or justify with
//     //camlint:allow nodeterminism -- <why order cannot escape>;
//  4. pointer formatting (fmt.Sprint* with %p, or of a pointer argument) —
//     addresses are ASLR-randomized per process, so a name or key built
//     from one differs between identically-seeded runs.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "forbid wall-clock reads, math/rand, map iteration and pointer formatting " +
		"that can make simulation state differ between identically-seeded runs",
	Run: runNoDeterminism,
}

// wallClockFuncs are the package-level time functions that read or depend on
// the host clock. time.Duration and friends remain usable as plain types.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

func runNoDeterminism(pass *Pass) error {
	critical := simCritical(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s: streams are not stable across Go releases; use sim.RNG (xoshiro256**)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[n.Sel].(*types.Func); ok {
					if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "time" &&
						fn.Type().(*types.Signature).Recv() == nil &&
						wallClockFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"wall-clock time.%s leaks host time into a deterministic simulation; use the virtual clock (sim.Engine.Now / Proc.Sleep)", fn.Name())
					}
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					strings.HasPrefix(fn.Name(), "Sprint") && pointerFormatCall(pass.Info, n) {
					pass.Reportf(n.Pos(),
						"fmt.%s formats a pointer: addresses differ between identically-seeded runs; use a stable identifier", fn.Name())
				}
			case *ast.RangeStmt:
				if !critical || n.X == nil {
					return true
				}
				tv, ok := pass.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !isKeyCollection(n) {
					pass.Reportf(n.Pos(),
						"map iteration order is randomized and may leak into simulation state or output; iterate over sorted keys%s", allowHint())
				}
			}
			return true
		})
	}
	return nil
}

// pointerFormatCall reports whether a fmt.Sprint* call renders a pointer:
// either its constant format string contains %p, or an argument is a
// pointer or unsafe.Pointer.
func pointerFormatCall(info *types.Info, call *ast.CallExpr) bool {
	for i, arg := range call.Args {
		if i == 0 {
			if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "%p") {
					return true
				}
				continue
			}
		}
		if tv, ok := info.Types[arg]; ok {
			switch u := tv.Type.Underlying().(type) {
			case *types.Pointer:
				return true
			case *types.Basic:
				if u.Kind() == types.UnsafePointer {
					return true
				}
			}
		}
	}
	return false
}

func allowHint() string {
	return " (or annotate //camlint:allow nodeterminism -- <why order cannot escape>)"
}

// isKeyCollection recognizes the blessed sorted-iteration idiom — a range
// whose body only gathers the keys for later sorting:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//
// The collected slice is unordered until sorted, so the loop itself cannot
// leak iteration order.
func isKeyCollection(n *ast.RangeStmt) bool {
	if n.Value != nil || n.Body == nil || len(n.Body.List) != 1 {
		return false
	}
	key, ok := n.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}
