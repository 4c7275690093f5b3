package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkSource type-checks one synthetic package for call-graph tests.
func checkSource(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

func TestCallGraph(t *testing.T) {
	pkg := checkSource(t, "p", `package p

type T struct{}

func (t *T) m() { helper() }

func helper() {}

func root() {
	t := &T{}
	t.m()
}

func island() {}
`)
	cg := buildCallGraph([]*Package{pkg})

	for _, key := range []string{"p.root", "p.helper", "p.island", "(*p.T).m"} {
		if cg.Funcs[key] == nil {
			t.Fatalf("call graph is missing %s; have %v", key, cg.SortedKeys())
		}
	}

	// Call sites resolve to in-program nodes with positions in source order.
	root := cg.Funcs["p.root"]
	if len(root.Calls) != 1 || root.Calls[0].Fn == nil || root.Calls[0].Fn.Key != "(*p.T).m" {
		t.Errorf("root.Calls = %+v, want one resolved call to (*p.T).m", root.Calls)
	}

	// CFGs build lazily and are cached.
	if cfg := root.CFG(); cfg == nil || cfg != root.CFG() {
		t.Error("FuncInfo.CFG not built or not cached")
	}
}
