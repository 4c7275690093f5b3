package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncInfo is one function declaration in the analyzed program, with the
// static calls its body (including nested function literals) makes. It is
// the node type of the program call graph.
type FuncInfo struct {
	Key  string // stable identity, see funcKey
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls lists every static call site in source order. Callees outside
	// the analyzed program (stdlib, export-data deps) appear with a Key but
	// a nil Fn.
	Calls []CallSite

	cfg *CFG // built lazily, see FuncInfo.CFG
}

// CallSite is one static call inside a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func // static callee; never nil
	Key    string      // funcKey(Callee)
	Fn     *FuncInfo   // resolved in-program callee, or nil
}

// CFG returns the function's control-flow graph, building it on first use.
// Functions without a body (external linkage) return nil.
func (fi *FuncInfo) CFG() *CFG {
	if fi.Decl.Body == nil {
		return nil
	}
	if fi.cfg == nil {
		fi.cfg = NewCFG(fi.Decl.Body)
	}
	return fi.cfg
}

// CallGraph indexes every function declaration in the program and the
// static call edges between them. Calls through function values, interface
// methods, and goroutine launches are not resolved — analyzers built on the
// graph must treat it as a may-call under-approximation and stay
// conservative accordingly.
type CallGraph struct {
	// Funcs maps stable key → declaration, for every FuncDecl in the program.
	Funcs map[string]*FuncInfo
	// ByDecl recovers the node for a declaration encountered during an AST
	// walk.
	ByDecl map[*ast.FuncDecl]*FuncInfo
}

// buildCallGraph constructs the call graph over all packages' syntax.
func buildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		Funcs:  map[string]*FuncInfo{},
		ByDecl: map[*ast.FuncDecl]*FuncInfo{},
	}
	// Pass 1: nodes.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Key: funcKey(obj), Obj: obj, Decl: fd, Pkg: pkg}
				cg.Funcs[fi.Key] = fi
				cg.ByDecl[fd] = fi
			}
		}
	}
	// Pass 2: edges.
	for _, fi := range cg.Funcs {
		if fi.Decl.Body == nil {
			continue
		}
		info := fi.Pkg.Info
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			key := funcKey(callee)
			fi.Calls = append(fi.Calls, CallSite{
				Call:   call,
				Callee: callee,
				Key:    key,
				Fn:     cg.Funcs[key],
			})
			return true
		})
	}
	return cg
}

// SortedKeys returns the program's function keys in deterministic order, so
// fixpoint iterations and reports do not depend on map order.
func (cg *CallGraph) SortedKeys() []string {
	keys := make([]string, 0, len(cg.Funcs))
	for k := range cg.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
