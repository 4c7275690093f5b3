package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestClaimProvenance ties the claim table to the calibration ledger
// (internal/calib): every claim id a row names is a claim, every claim is
// labelled input, derived or emergent, and every input or derived claim is
// named by at least one row — the rows it reads back or its arithmetic
// runs over.
func TestClaimProvenance(t *testing.T) {
	named := ledgerClaims(t)
	ids := map[string]bool{}
	for _, c := range claims {
		ids[c.id] = true
		switch c.prov {
		case "input", "derived":
			if len(named[c.id]) == 0 {
				t.Errorf("claim %s is %s, but no calib row names it", c.id, c.prov)
			}
		case "emergent":
		default:
			t.Errorf("claim %s: provenance %q, want input, derived or emergent", c.id, c.prov)
		}
	}
	for id, rows := range named {
		if !ids[id] {
			t.Errorf("calib rows %v name claim %q, which the claim table does not have", rows, id)
		}
	}
}

// ledgerClaims maps each claim id the calib rows name to those rows. A row
// is a one-line function whose trailing comment is its unit (none for a
// sim.Time row), its source and, optionally, its claim ids, separated by
// " · ".
func ledgerClaims(t *testing.T) map[string][]string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../calib/calib.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	trailing := map[int]string{}
	for _, cg := range f.Comments {
		trailing[fset.Position(cg.Pos()).Line] = strings.TrimPrefix(cg.List[0].Text, "// ")
	}
	named := map[string][]string{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fields := strings.Split(trailing[fset.Position(fn.Pos()).Line], " · ")
		want := 3 // unit, source, claims
		if sel, ok := fn.Type.Results.List[0].Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Time" {
			want = 2
		}
		if len(fields) == want {
			for _, id := range strings.Fields(fields[want-1]) {
				named[id] = append(named[id], fn.Name.Name)
			}
		}
	}
	if len(named) == 0 {
		t.Fatal("no calib row names a claim: the ledger format changed")
	}
	return named
}
