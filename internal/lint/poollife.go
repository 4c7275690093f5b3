package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolLife enforces the pooled-object lifecycle that PR 3's zero-allocation
// data plane depends on: once a //camlint:pool object is returned to its
// free list by a //camlint:pool release function (or any function inferred
// to release it — see inference below), the caller no longer owns it. The
// reactor may hand it to another goroutine or recycle it for an unrelated
// command, so a stale read is a data race in the simulated world even though
// the Go race detector, which only sees one simulation goroutine at a time,
// stays quiet.
//
// The analyzer runs a forward may-released dataflow over each function's
// CFG, tracking local variables of pointer-to-pooled type:
//
//   - a call that releases a tracked variable marks it released;
//   - using a possibly-released variable (reading a field, passing it on,
//     waiting on its signal) is a use-after-release finding;
//   - releasing it again is a double-release finding;
//   - reassigning the variable makes it live again (kill).
//
// Release is interprocedural: //camlint:pool release annotations seed the
// releaser set, and a fixpoint adds any function that unconditionally (at
// the top level of its body, or via defer) forwards a pooled parameter to a
// known releaser. Conditional releases deliberately do not propagate: a
// function that sometimes recycles and sometimes retains (spdk's deliver)
// must not poison every caller.
var PoolLife = &Analyzer{
	Name: "poollife",
	Doc: "flag use-after-release and double-release of pooled objects " +
		"(//camlint:pool types returned to free lists by //camlint:pool release functions)",
	Prepare: preparePoolLife,
	Run:     runPoolLife,
}

func preparePoolLife(prog *Program) error {
	poolReleasers := map[string]map[int]bool{}
	prog.poolReleasers = poolReleasers
	seed := func(fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		pos := map[int]bool{}
		if recv := sig.Recv(); recv != nil {
			if _, ok := prog.Ann.pooledType(recv.Type()); ok {
				pos[-1] = true
			}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if _, ok := prog.Ann.pooledType(sig.Params().At(i).Type()); ok {
				pos[i] = true
			}
		}
		if len(pos) > 0 {
			poolReleasers[funcKey(fn)] = pos
		}
	}
	for key := range prog.Ann.Release {
		if fi := prog.CG.Funcs[key]; fi != nil {
			seed(fi.Obj)
		}
	}

	// Inference fixpoint: F releases parameter p if a top-level statement
	// of F's body (or a defer, which always runs) passes p in a releasing
	// position of a known releaser.
	keys := prog.CG.SortedKeys()
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			fi := prog.CG.Funcs[key]
			if fi.Decl.Body == nil {
				continue
			}
			for _, stmt := range fi.Decl.Body.List {
				var call *ast.CallExpr
				switch s := stmt.(type) {
				case *ast.ExprStmt:
					call, _ = s.X.(*ast.CallExpr)
				case *ast.DeferStmt:
					call = s.Call
				}
				if call == nil {
					continue
				}
				callee := calleeFunc(fi.Pkg.Info, call)
				if callee == nil {
					continue
				}
				for argPos := range poolReleasers[funcKey(callee)] {
					arg := releasedArg(call, argPos)
					if arg == nil {
						continue
					}
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := fi.Pkg.Info.Uses[id]
					if obj == nil {
						continue
					}
					if pPos, ok := paramPosition(fi.Obj, obj); ok {
						m := poolReleasers[key]
						if m == nil {
							m = map[int]bool{}
							poolReleasers[key] = m
						}
						if !m[pPos] {
							m[pPos] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// releasedArg returns the expression occupying a releasing position of
// call: the receiver for -1, the i'th argument otherwise.
func releasedArg(call *ast.CallExpr, pos int) ast.Expr {
	if pos == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if pos < len(call.Args) {
		return call.Args[pos]
	}
	return nil
}

// paramPosition reports obj's position in fn's signature (-1 = receiver).
func paramPosition(fn *types.Func, obj types.Object) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	if recv := sig.Recv(); recv != nil && recv == obj {
		return -1, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

func runPoolLife(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := pass.Prog.CG.ByDecl[fd]
			if fi == nil {
				continue
			}
			analyzePoolLife(pass, fi)
		}
	}
	return nil
}

// releaseState maps a tracked object to the position where it was (possibly)
// released.
type releaseState map[types.Object]token.Pos

func (s releaseState) equal(o releaseState) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func analyzePoolLife(pass *Pass, fi *FuncInfo) {
	// Only functions that mention a pooled pointer at all need the
	// dataflow; tracked() filters per object below.
	cfg := fi.CFG()
	if cfg == nil {
		return
	}
	tracked := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return false
		}
		if _, ok := obj.Type().(*types.Pointer); !ok {
			return false
		}
		_, pooled := pass.Prog.Ann.pooledType(obj.Type())
		return pooled
	}

	preds := make([][]*Block, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}

	out := make([]releaseState, len(cfg.Blocks))
	for i := range out {
		out[i] = releaseState{}
	}
	inState := func(b *Block) releaseState {
		in := releaseState{}
		for _, p := range preds[b.Index] {
			for obj, pos := range out[p.Index] {
				if _, ok := in[obj]; !ok {
					in[obj] = pos
				}
			}
		}
		return in
	}

	// Fixpoint on block exit states (no reporting yet).
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			st := inState(b)
			for _, n := range b.Nodes {
				transferPoolNode(pass, fi, n, st, tracked, nil)
			}
			if !st.equal(out[b.Index]) {
				out[b.Index] = st
				changed = true
			}
		}
	}

	// Reporting pass with converged entry states. A (object, position)
	// pair reports once even if several blocks replay it.
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, fix, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.ReportFix(pos, fix, format, args...)
	}
	for _, b := range cfg.Blocks {
		st := inState(b)
		for _, n := range b.Nodes {
			transferPoolNode(pass, fi, n, st, tracked, report)
		}
	}
}

// transferPoolNode applies one CFG node to the release state, reporting
// findings through report when non-nil.
func transferPoolNode(pass *Pass, fi *FuncInfo, n ast.Node, st releaseState,
	tracked func(types.Object) bool, report func(pos token.Pos, fix, format string, args ...any)) {

	info := fi.Pkg.Info

	// Range headers define their key/value (kill) and use only X.
	if r, ok := n.(*ast.RangeStmt); ok {
		checkPoolUses(pass, r.X, st, tracked, info, nil, report)
		for _, e := range []ast.Expr{r.Key, r.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj == nil {
					delete(st, info.Uses[id])
				} else {
					delete(st, obj)
				}
			}
		}
		return
	}

	// Identify releasing calls and the identifiers they release, so the
	// use check below does not double-count the release itself as a use.
	releasing := map[*ast.Ident]*ast.CallExpr{}
	WalkNode(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		for argPos := range pass.Prog.poolReleasers[funcKey(callee)] {
			if id, ok := ast.Unparen(releasedArg(call, argPos)).(*ast.Ident); ok {
				releasing[id] = call
			}
		}
		return true
	})

	// 1. Uses of possibly-released objects.
	checkPoolUses(pass, n, st, tracked, info, releasing, report)

	// 2. Releases take effect (and flag double release).
	for id, call := range releasing {
		obj := info.Uses[id]
		if !tracked(obj) {
			continue
		}
		if prev, ok := st[obj]; ok && report != nil {
			report(call.Pos(), "release exactly once; drop this call or re-acquire from the pool",
				"%s released twice: already released at %s", id.Name, pass.Fset.Position(prev))
		}
		st[obj] = call.Pos()
	}

	// 3. Assignment targets come back to life.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					delete(st, obj)
				} else if obj := info.Uses[id]; obj != nil {
					delete(st, obj)
				}
			}
		}
	}
}

// checkPoolUses reports every identifier in n that reads a possibly-released
// tracked object. Identifiers in releasing positions are the release itself,
// not a use; assignment left-hand sides are kills handled by the caller.
func checkPoolUses(pass *Pass, n ast.Node, st releaseState,
	tracked func(types.Object) bool, info *types.Info,
	releasing map[*ast.Ident]*ast.CallExpr,
	report func(pos token.Pos, fix, format string, args ...any)) {

	if report == nil || n == nil {
		return
	}
	lhs := map[ast.Expr]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, e := range as.Lhs {
			if _, isIdent := ast.Unparen(e).(*ast.Ident); isIdent {
				lhs[e] = true
			}
		}
	}
	WalkNode(n, func(c ast.Node) bool {
		if e, ok := c.(ast.Expr); ok && lhs[e] {
			return false
		}
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isRelease := releasing[id]; isRelease {
			return true
		}
		obj := info.Uses[id]
		if !tracked(obj) {
			return true
		}
		if relPos, released := st[obj]; released {
			report(id.Pos(), "move this use before the release, or re-acquire from the pool",
				"use of %s after release: %s was returned to its pool at %s and may already be recycled",
				id.Name, id.Name, pass.Fset.Position(relPos))
		}
		return true
	})
}
