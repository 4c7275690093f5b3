package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckSim flags call statements that silently drop an error returned by
// a camsim API. Doorbell writes, completion polls and store I/O all signal
// simulated-hardware failures through their error results; ignoring one
// desynchronizes the model from the state the code believes it has.
// Explicitly assigning to _ is accepted as a deliberate, reviewable decision.
var ErrCheckSim = &Analyzer{
	Name: "errchecksim",
	Doc: "flag statements that discard an error returned by a simulator API " +
		"(camsim/... packages)",
	Run: runErrCheckSim,
}

func runErrCheckSim(pass *Pass) error {
	check := func(call *ast.CallExpr, how string) {
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if !strings.HasPrefix(fn.Pkg().Path(), modulePrefix) {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		res := sig.Results()
		for i := 0; i < res.Len(); i++ {
			if isErrorType(res.At(i).Type()) {
				pass.Reportf(call.Pos(),
					"%serror result of %s.%s is silently dropped; handle it or assign it to _ explicitly",
					how, fn.Pkg().Name(), fn.Name())
				return
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "")
				}
			case *ast.GoStmt:
				check(n.Call, "go statement: ")
			case *ast.DeferStmt:
				check(n.Call, "deferred call: ")
			}
			return true
		})
	}
	return nil
}
