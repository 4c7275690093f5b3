package camsim

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// calibRow is one row of the calibration ledger as its source states it.
type calibRow struct {
	name, typ            string
	value                constant.Value // exact; a sim.Time row's is nanoseconds
	unit, source, claims string
}

var claimIDs = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9.]+)+$`)

// calibLedger reads internal/calib's rows through the module checker, failing
// on anything in the package that is not a well-formed row: a one-line
// function of no arguments that returns a constant, followed by a comment
// holding its unit (none for a sim.Time row), its source and, optionally,
// the ids of the claims it sets, separated by " · ".
func calibLedger(t *testing.T) map[string]calibRow {
	t.Helper()
	c, pkgs := checkedModule(t)
	rows := map[string]calibRow{}
	for _, p := range pkgs {
		if p.types.Path() != "camsim/internal/calib" {
			continue
		}
		for _, f := range p.files {
			// The checker parses without comments; read them on their own.
			fset := token.NewFileSet()
			fc, err := parser.ParseFile(fset, c.fset.Position(f.Pos()).Filename, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			trailing := map[int]string{}
			for _, cg := range fc.Comments {
				trailing[fset.Position(cg.Pos()).Line] = strings.TrimPrefix(cg.List[0].Text, "// ")
			}
			for _, decl := range f.Decls {
				if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.IMPORT {
					continue
				}
				fn, ok := decl.(*ast.FuncDecl)
				line := c.fset.Position(decl.Pos()).Line
				if !ok || fn.Recv != nil || fn.Type.Params.NumFields() != 0 || len(fn.Body.List) != 1 ||
					c.fset.Position(decl.End()).Line != line {
					t.Errorf("internal/calib line %d: the ledger holds only one-line row functions", line)
					continue
				}
				ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
				var value constant.Value
				if ok && len(ret.Results) == 1 {
					value = p.info.Types[ret.Results[0]].Value
				}
				if value == nil {
					t.Errorf("calib.%s does not return one constant", fn.Name.Name)
					continue
				}
				typ := types.TypeString(p.info.Defs[fn.Name].Type().(*types.Signature).Results().At(0).Type(), nil)
				r := calibRow{name: fn.Name.Name, typ: typ, value: value}
				fields := strings.Split(trailing[line], " · ")
				if typ != "camsim/internal/sim.Time" {
					r.unit, fields = fields[0], fields[1:]
				}
				if len(fields) > 0 {
					r.source = fields[0]
				}
				if len(fields) > 1 {
					r.claims = fields[1]
				}
				for _, id := range strings.Fields(r.claims) {
					if !claimIDs.MatchString(id) {
						t.Errorf("calib.%s names claim %q, which is not a claim id", r.name, id)
					}
				}
				if r.source == "" || len(fields) > 2 || (r.unit == "" && typ != "camsim/internal/sim.Time") {
					t.Errorf("calib.%s: comment %q, want \"unit · source\" (no unit for a sim.Time) and optional claim ids", r.name, trailing[line])
				}
				rows[r.name] = r
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("internal/calib has no rows")
	}
	return rows
}

// TestCalibRowsRead: every calib row is read by some non-test code outside
// internal/calib, so the ledger cannot keep a number the model no longer
// uses. It also checks the rows' format (calibLedger).
func TestCalibRowsRead(t *testing.T) {
	rows := calibLedger(t)
	_, pkgs := checkedModule(t)
	read := map[string]bool{}
	for _, p := range pkgs {
		if p.types.Path() == "camsim/internal/calib" {
			continue
		}
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == "camsim/internal/calib" {
				read[obj.Name()] = true
			}
		}
	}
	for name := range rows {
		if !read[name] {
			t.Errorf("calib.%s is read by no non-test code outside internal/calib: read it or delete the row", name)
		}
	}
}
