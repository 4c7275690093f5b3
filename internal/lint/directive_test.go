package lint

import (
	"reflect"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//camlint:allow", nil, true},
		{"//camlint:allow nodeterminism", []string{"nodeterminism"}, true},
		{"//camlint:allow nodeterminism,eventtime", []string{"nodeterminism", "eventtime"}, true},
		{"//camlint:allow nodeterminism -- cli flag parsing only", []string{"nodeterminism"}, true},
		{"//camlint:allow -- blanket, with reason", nil, true},
		{"//camlint:allowance", nil, false},
		{"// camlint:allow", nil, false},
		{"//nolint:all", nil, false},
		// One directive per comment: a second embedded directive (or a
		// "// want" test expectation) is not an analyzer name.
		{"//camlint:allow nodeterminism //camlint:allow eventtime", []string{"nodeterminism"}, true},
		{"//camlint:allow nodeterminism -- reason // want \"stale\"", []string{"nodeterminism"}, true},
		// Mixed separators and tabs.
		{"//camlint:allow nodeterminism, eventtime", []string{"nodeterminism", "eventtime"}, true},
		{"//camlint:allow\tnodeterminism\teventtime", []string{"nodeterminism", "eventtime"}, true},
	}
	for _, c := range cases {
		verb, names, ok := parseDirective(c.text)
		if ok = ok && verb == "allow"; ok != c.ok || ok && !reflect.DeepEqual(names, c.names) {
			t.Errorf("parseDirective(%q) = %q, %v; want an allow of %v: %v", c.text, verb, names, c.names, c.ok)
		}
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		verb string
		args []string
		ok   bool
	}{
		{"//camlint:allow nodeterminism", "allow", []string{"nodeterminism"}, true},
		// Unknown verbs, a typo and none at all are directives, returned as
		// written for collectAllows to report.
		{"//camlint:frobnicate", "frobnicate", nil, true},
		{"//camlint:alow nodeterminism -- typo", "alow", []string{"nodeterminism"}, true},
		{"//camlint:", "", nil, true},
		{"// pool release", "", nil, false},
		// Leading whitespace after the colon is tolerated.
		{"//camlint: allow", "allow", nil, true},
	}
	for _, c := range cases {
		verb, args, ok := parseDirective(c.text)
		if verb != c.verb || ok != c.ok || !reflect.DeepEqual(args, c.args) {
			t.Errorf("parseDirective(%q) = %q, %v, %v; want %q, %v, %v",
				c.text, verb, args, ok, c.verb, c.args, c.ok)
		}
	}
}
