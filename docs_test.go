package camsim

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignNamesExist: every Test…, Fuzz… and Benchmark… name that
// DESIGN.md, README.md or EXPERIMENTS.md cites is a function declared in the
// repository's Go source (bench/ included), so the docs cannot go on citing
// a test that was deleted or renamed. So is every backticked `pkg.Name`,
// `pkg.Type.Member` and `Type.Member` whose pkg is one of the repository's
// packages or whose Type is one of its types: Name is a top-level
// declaration of pkg, Member a method or field of Type. Cites of other
// packages (`time.Now`), of files (`go.mod`) and of dotted metric names
// (`ssd.cpu_share`) are not checked.
//
// Section cites are checked too: a "DESIGN §N", "DESIGN.md §N" or
// "DESIGN's §N" cite (and the "§M" that follow it in a list) in any Go or
// Markdown file, and every "§N" inside DESIGN.md itself, must name a "## N."
// heading of DESIGN.md. At the root only README.md, EXPERIMENTS.md and
// ROADMAP.md are checked besides DESIGN.md: CHANGES.md and the other root
// notes are history or paper excerpts and cite the numbering of their day;
// bench/ cites no section.
func TestDesignNamesExist(t *testing.T) {
	declared := map[string]bool{}
	pkgs := map[string]map[string]bool{}    // package name → its top-level names
	members := map[string]map[string]bool{} // "Type" and "pkg.Type" → methods and fields
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	addMember := func(pkg, typ, name string) {
		add(members, typ, name)
		add(members, pkg+"."+typ, name)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
					add(pkgs, pkg, d.Name.Name)
				} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
					addMember(pkg, typ, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(pkgs, pkg, s.Name.Name)
						var fields *ast.FieldList
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						for _, fl := range fieldList(fields) {
							for _, n := range fl.Names {
								addMember(pkg, s.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 {
								if typ := recvType(fl.Type); typ != "" {
									addMember(pkg, s.Name.Name, typ)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// resolves reports whether a dotted cite names a declaration, and
	// whether it is a cite of this repository's code at all.
	resolves := func(segs []string) (ok, ours bool) {
		if names, isPkg := pkgs[segs[0]]; isPkg {
			if !names[segs[1]] {
				return false, true
			}
			return len(segs) == 2 || members[segs[0]+"."+segs[1]][segs[2]], true
		}
		if m, isType := members[segs[0]]; isType && len(segs) == 2 {
			return m[segs[1]], true
		}
		return false, false
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	backticked := regexp.MustCompile("`([^`]+)`")
	dotted := regexp.MustCompile(`^[A-Za-z]\w*(?:\.[A-Za-z]\w*){1,2}$`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range cited.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d cites %s, which no Go file declares", doc, i+1, name)
				}
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				// `*pkg.T`, `(*pkg.T).M` and `T.M()` cite pkg.T and pkg.T.M.
				code := strings.TrimPrefix(strings.TrimSuffix(m[1], "()"), "*")
				if strings.HasPrefix(code, "(*") {
					code = strings.NewReplacer("(*", "", ")", "").Replace(code)
				}
				if !dotted.MatchString(code) || strings.Contains(code, "_") {
					continue
				}
				if ok, ours := resolves(strings.Split(code, ".")); ours && !ok {
					t.Errorf("%s:%d cites `%s`, which no Go file declares", doc, i+1, m[1])
				}
			}
		}
	}
	checkSectionCites(t)
}

// checkSectionCites is the section half of TestDesignNamesExist.
func checkSectionCites(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+)\.`).FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = true
	}
	// A cite may break across lines, and in Go across comment markers.
	anchor := regexp.MustCompile(`DESIGN(?:\.md|'s)?(?:\s|//)*§([0-9]+)`)
	more := regexp.MustCompile(`^(?:\s|//)*(?:,|and|or)(?:\s|//)*§([0-9]+)`)
	bare := regexp.MustCompile(`§([0-9]+)`)
	check := func(path, text string, cites *regexp.Regexp) {
		for _, loc := range cites.FindAllStringSubmatchIndex(text, -1) {
			for end, n := loc[1], text[loc[2]:loc[3]]; ; {
				if !headings[n] {
					line := 1 + strings.Count(text[:loc[0]], "\n")
					t.Errorf("%s:%d cites DESIGN.md §%s, which has no \"## %s.\" heading", path, line, n, n)
				}
				m := more.FindStringSubmatchIndex(text[end:])
				if m == nil {
					break
				}
				n, end = text[end+m[2]:end+m[3]], end+m[1]
			}
		}
	}
	rootDocs := map[string]bool{"README.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case path == "DESIGN.md":
			check(path, string(design), bare)
		case strings.HasSuffix(path, ".md") && filepath.Dir(path) == "." && !rootDocs[path]:
			return nil
		case strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			check(path, string(src), anchor)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignCalibration: DESIGN §4 states the calibration as
// "`expression` = value" cites, and every one evaluates, over the calib rows
// (calibLedger; `calib.X` is a row, a sim.Time row in nanoseconds), to its
// stated value rounded to the digits given. Any other number in §4 fails
// (section signs and digits inside a name, such as A100 or fig8a, are not
// numbers), so changing one number in §4 fails the test.
func TestDesignCalibration(t *testing.T) {
	rows := calibLedger(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := regexp.MustCompile(`(?s)\n## 4\.[^\n]*\n(.*?)\n## 5\.`).FindSubmatch(design)
	if sec == nil {
		t.Fatal("DESIGN.md has no §4 before §5")
	}
	text := string(sec[1])
	cite := regexp.MustCompile("`([^`]+)`\\s*=\\s+([0-9]{1,3}(?: [0-9]{3})+(?:\\.[0-9]+)?|[0-9]+(?:\\.[0-9]+)?)")
	cites := cite.FindAllStringSubmatch(text, -1)
	for _, m := range cites {
		expr, err := parser.ParseExpr(m[1])
		if err != nil {
			t.Errorf("§4: `%s`: %v", m[1], err)
			continue
		}
		got, err := evalCalib(expr, rows)
		if err != nil {
			t.Errorf("§4: `%s`: %v", m[1], err)
			continue
		}
		stated := strings.ReplaceAll(m[2], " ", "")
		half := "0.5"
		if i := strings.IndexByte(stated, '.'); i >= 0 {
			half = "0." + strings.Repeat("0", len(stated)-i-1) + "5"
		}
		diff := constant.BinaryOp(got, token.SUB, constant.MakeFromLiteral(stated, token.FLOAT, 0))
		if constant.Sign(diff) < 0 {
			diff = constant.UnaryOp(token.SUB, diff, 0)
		}
		if constant.Compare(diff, token.GTR, constant.MakeFromLiteral(half, token.FLOAT, 0)) {
			f, _ := constant.Float64Val(got)
			t.Errorf("§4 states `%s` = %s, but the rows give %.6g", m[1], m[2], f)
		}
	}
	if len(cites) < 10 {
		t.Errorf("§4 has %d calibration cites; the section lost its arithmetic", len(cites))
	}
	rest := cite.ReplaceAllString(text, "")
	for _, n := range regexp.MustCompile(`(?:^|[^\pL\pN_§])(\pN+)`).FindAllStringSubmatch(rest, -1) {
		t.Errorf("§4 states %s outside a checked \"`expression` = value\" cite", n[1])
	}
}

// evalCalib evaluates a §4 expression exactly: literals, calib rows, + - * /
// and parentheses.
func evalCalib(e ast.Expr, rows map[string]calibRow) (constant.Value, error) {
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0), nil
	case *ast.ParenExpr:
		return evalCalib(e.X, rows)
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "calib" {
			if r, ok := rows[e.Sel.Name]; ok {
				return r.value, nil
			}
			return nil, fmt.Errorf("internal/calib has no row %s", e.Sel.Name)
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB && e.Op != token.MUL && e.Op != token.QUO {
			break
		}
		x, err := evalCalib(e.X, rows)
		if err != nil {
			return nil, err
		}
		y, err := evalCalib(e.Y, rows)
		if err != nil {
			return nil, err
		}
		if e.Op == token.QUO && constant.Sign(y) == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return constant.BinaryOp(constant.ToFloat(x), e.Op, constant.ToFloat(y)), nil
	}
	return nil, fmt.Errorf("%T is not a literal, a calib row or an arithmetic operator", e)
}

func fieldList(fl *ast.FieldList) []*ast.Field {
	if fl == nil {
		return nil
	}
	return fl.List
}

// recvType is the type name of a method receiver or an embedded field.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}
