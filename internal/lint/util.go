package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// modulePrefix marks packages whose APIs the suite guards. Fixture packages
// under testdata/src reuse the prefix so analyzers behave identically there.
const modulePrefix = "camsim/"

// simCritical reports whether pkgPath is part of the simulation substrate,
// where map iteration order must never influence behavior. Everything under
// internal/ qualifies except the lint suite itself (whose diagnostics are
// explicitly sorted before use).
func simCritical(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, modulePrefix+"internal/") {
		return false
	}
	return !strings.HasPrefix(pkgPath, modulePrefix+"internal/lint")
}

// calleeFunc resolves the function or method a call statically invokes.
// It returns nil for conversions, builtins, and calls through func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isSimTime reports whether t is the virtual-clock type sim.Time (matched
// structurally by name and package suffix so testdata fixtures using a fake
// camsim/internal/sim package behave like the real one).
func isSimTime(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Time" || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}

// isWallClock reports whether t is time.Duration or time.Time.
func isWallClock(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return false
	}
	return obj.Name() == "Duration" || obj.Name() == "Time"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
