package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// funcLines counts the source lines of named functions/methods in a Go
// file (receiver-qualified names use "Recv.Method").
func funcLines(path string, names ...string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return 0, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	total := 0
	ast.Inspect(f, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if t, ok := recvTypeName(fd.Recv.List[0].Type); ok {
				name = t + "." + name
			}
		}
		if want[name] {
			delete(want, name)
			total += fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
		}
		return true
	})
	for n := range want {
		return 0, fmt.Errorf("%s: no function %s", path, n)
	}
	return total, nil
}

func recvTypeName(e ast.Expr) (string, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	}
	return "", false
}

// TestTab6CountsMatchSource keeps Table VI's committed counts honest: every
// row is recounted from the file it names (a renamed or deleted function is
// an error, not a zero), and the paper's claim is asserted as orderings over
// the same numbers rather than read off the table's note.
//
// The paper's Table VI says CAM's asynchronous API costs no extra application
// code: its sort against the POSIX one, its GEMM against the GDS and BaM ones,
// its GNN loop against GIDS (66 lines against 65). Here sort and GEMM share a
// backend-independent core, so a scheme's application is that core plus its
// adapter glue. CAM's sort is no longer than the synchronous POSIX sort; its
// GEMM glue is a few lines longer than the GDS and BaM glue, which keeps the
// whole application within a tenth of theirs. The pipelined GNN loop is the
// documented exception (EXPERIMENTS.md): it is longer than the serial one, by
// more than the paper's one line, and is only held to staying under twice it.
func TestTab6CountsMatchSource(t *testing.T) {
	loc := map[string]int{}
	for _, row := range tab6Rows {
		got, err := funcLines(filepath.Join("..", "..", row.path), row.funcs...)
		if err != nil {
			t.Fatal(err)
		}
		if got != row.loc {
			t.Errorf("%s / %s: %s counts %d lines in %v, the committed table says %d",
				row.workload, row.scheme, row.path, got, row.funcs, row.loc)
		}
		loc[row.workload+"/"+row.scheme] = row.loc
	}
	if cam, posix := loc["Sort/CAM adapter"], loc["Sort/POSIX adapter"]; cam > posix {
		t.Errorf("sort: CAM glue is %d lines, the synchronous POSIX glue %d", cam, posix)
	}
	core, cam := loc["GEMM/shared core"], loc["GEMM/CAM adapter"]
	for _, base := range []string{"GDS adapter", "BaM adapter"} {
		if b := loc["GEMM/"+base]; 10*(core+cam) > 11*(core+b) {
			t.Errorf("GEMM: the CAM application is %d lines, over a tenth more than %d with the %s", core+cam, core+b, base)
		}
	}
	if cam, gids := loc["GNN training/CAM"], loc["GNN training/BaM (GIDS)"]; cam >= 2*gids {
		t.Errorf("GNN: the pipelined CAM loop is %d lines, the serial GIDS loop %d", cam, gids)
	}
}
