package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strconv"
	"strings"
)

// camlint directives. All share the "//camlint:" prefix, and allow is the
// only verb:
//
//	//camlint:allow                         suppress every analyzer
//	//camlint:allow nodeterminism           suppress one analyzer
//	//camlint:allow nodeterminism,eventtime suppress several
//	//camlint:allow nodeterminism -- reason free-text justification
//
// An allow directive trailing a line suppresses diagnostics reported on its
// own line; a stand-alone directive comment additionally covers the line
// immediately below it, so it can precede the flagged statement.
// Justifications after " -- " are encouraged (and quoted in DESIGN.md's
// determinism rules) but not enforced mechanically. Any other verb, a typo
// or a retired one, is reported as a "directive" finding rather than read as
// a plain comment.
const directivePrefix = "//camlint:"

// parseDirective splits a comment into its camlint verb and argument fields.
// The justification after " -- " is stripped. ok is false for ordinary
// comments; an unknown verb, or none, is returned as written for the caller
// to reject.
func parseDirective(text string) (verb string, args []string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", nil, false
	}
	rest := text[len(directivePrefix):]
	// One directive per comment: anything after an embedded "//" (including
	// a second "//camlint:" or a "// want" test expectation) is not part of
	// this directive's argument list.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	// Strip the justification, if any.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
	if len(fields) == 0 {
		return "", nil, true
	}
	if len(fields) > 1 {
		args = fields[1:]
	}
	return fields[0], args, true
}

// allowDirective is one //camlint:allow comment, tracked individually so
// the unusedallow check can report directives that stopped suppressing
// anything.
type allowDirective struct {
	pos   token.Position
	names []string        // nil for the bare (suppress-everything) form
	used  map[string]bool // names that suppressed a diagnostic ("*" = bare)
}

// bare reports whether the directive suppresses every analyzer.
func (d *allowDirective) bare() bool { return len(d.names) == 0 }

// allowSet indexes allow directives by the "file:line" positions they cover.
type allowSet struct {
	byLine map[string][]*allowDirective
	all    []*allowDirective
	// malformed holds a "directive" finding for each //camlint: comment
	// whose verb is not allow.
	malformed []Diagnostic
}

// collectAllows scans every comment in files for directives.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	set := &allowSet{byLine: map[string][]*allowDirective{}}
	sources := map[string][]byte{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if verb != "allow" {
					set.malformed = append(set.malformed, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("unknown directive //camlint:%s: allow is the only verb, so it does nothing", verb),
						Fix:      "fix the verb or delete the directive",
					})
					continue
				}
				d := &allowDirective{pos: pos, names: names, used: map[string]bool{}}
				set.all = append(set.all, d)
				set.cover(pos.Filename, pos.Line, d)
				// Only a stand-alone comment also covers the next line
				// (so it can precede the flagged statement); a trailing
				// directive must not leak onto its neighbor.
				if standsAlone(sources, pos) {
					set.cover(pos.Filename, pos.Line+1, d)
				}
			}
		}
	}
	return set
}

// standsAlone reports whether only whitespace precedes the token at pos on
// its source line, reading (and caching) the file to find out. If the file
// cannot be read the directive is treated as trailing, the conservative
// choice.
func standsAlone(sources map[string][]byte, pos token.Position) bool {
	src, ok := sources[pos.Filename]
	if !ok {
		src, _ = os.ReadFile(pos.Filename)
		sources[pos.Filename] = src
	}
	if pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - pos.Column + 1; i < pos.Offset; i++ {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}

func (s *allowSet) cover(file string, line int, d *allowDirective) {
	key := posKey(file, line)
	s.byLine[key] = append(s.byLine[key], d)
}

// suppresses reports whether diag is covered by a directive, marking the
// matching directive (and name) as used so unusedallow can spot stale ones.
func (s *allowSet) suppresses(diag Diagnostic) bool {
	hit := false
	for _, d := range s.byLine[posKey(diag.Pos.Filename, diag.Pos.Line)] {
		if d.bare() {
			d.used["*"] = true
			hit = true
			continue
		}
		for _, n := range d.names {
			if n == diag.Analyzer {
				d.used[n] = true
				hit = true
			}
		}
	}
	return hit
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}
