package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Annotations is the program-wide fact store populated from //camlint:pool
// directives before any analyzer runs. Facts are keyed by stable strings
// rather than types.Object pointers because the same function is a
// different object when seen through export data than when type-checked
// from source; string keys survive the package boundary.
//
//   - funcKey:  (*camsim/internal/spdk.Driver).putRequest
//   - typeKey:  camsim/internal/spdk.Request
type Annotations struct {
	// Pool maps typeKey → position of a //camlint:pool annotated type whose
	// instances are recycled through a free list.
	Pool map[string]token.Position
	// Release maps funcKey → position of a //camlint:pool release annotated
	// function that returns its pooled pointer arguments to the pool.
	Release map[string]token.Position
}

func newAnnotations() *Annotations {
	return &Annotations{
		Pool:    map[string]token.Position{},
		Release: map[string]token.Position{},
	}
}

// funcKey returns the stable cross-package identity of fn: its origin's
// full name, so method instantiations and export-data duplicates collapse
// onto one key.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// typeKey returns the stable identity of a named type's type name.
func typeKey(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// pooledType reports whether t (after stripping pointers) is a
// //camlint:pool annotated named type, returning its key.
func (ann *Annotations) pooledType(t types.Type) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	key := typeKey(n.Obj())
	_, ok = ann.Pool[key]
	return key, ok
}

// collect scans pkg's declarations for pool annotations. Misplaced
// directives (pool on a function without the release argument, unknown
// arguments) are reported through report so they fail loudly instead of
// silently doing nothing.
func (ann *Annotations) collect(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				verb, args := declDirective(d.Doc)
				if verb == "" {
					continue
				}
				obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				if verb == "pool" && len(args) == 1 && args[0] == "release" {
					ann.Release[funcKey(obj)] = pkg.Fset.Position(d.Pos())
				} else {
					report(d.Pos(), "malformed //camlint:%s directive on func %s", verb, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					verb, args := declDirective(doc)
					if verb == "" {
						continue
					}
					obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if verb == "pool" && len(args) == 0 {
						ann.Pool[typeKey(obj)] = pkg.Fset.Position(ts.Pos())
					} else {
						report(ts.Pos(), "malformed //camlint:%s directive on type %s", verb, ts.Name.Name)
					}
				}
			}
		}
	}
}

// declDirective extracts the pool directive from a declaration's doc
// comment, if any. allow directives are not declaration annotations and are
// skipped here.
func declDirective(doc *ast.CommentGroup) (verb string, args []string) {
	if doc == nil {
		return "", nil
	}
	for _, c := range doc.List {
		v, a, ok := parseDirective(c.Text)
		if ok && v != "allow" {
			return v, a
		}
	}
	return "", nil
}
