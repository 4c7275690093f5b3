package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRun drives the linter's exit contract: 0 clean, 1 findings, 2 usage or
// load errors. The packages are named by import path, so the cases do not
// depend on the directory the test runs in.
func TestRun(t *testing.T) {
	const fixture = "camsim/internal/lint/testdata/src/nodeterminism"
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
		// heads, when set, is the first word of every stdout line, in order.
		heads []string
	}{
		{name: "clean package", args: []string{"camsim/internal/pcie"}, code: 0},
		{name: "fixture with findings", args: []string{fixture}, code: 1, stdout: "[nodeterminism] fmt.Sprintf formats a pointer"},
		{name: "-only another analyzer", args: []string{"-only", "eventtime", fixture}, code: 0},
		{name: "-list", args: []string{"-list"}, code: 0, heads: []string{"nodeterminism", "errchecksim", "eventtime", "unusedallow"}},
		{name: "unknown -only name", args: []string{"-only", "hotalloc", "camsim/internal/pcie"}, code: 2, stderr: `unknown analyzer "hotalloc"`},
		{name: "pattern matching no package", args: []string{"camsim/nosuch/..."}, code: 2, stderr: "matched no packages"},
		// The baseline left with its flags: a finding is fixed or allowed in place.
		{name: "no -baseline", args: []string{"-baseline", "x.json"}, code: 2, stderr: "flag provided but not defined: -baseline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout = %q, want it to contain %q", stdout.String(), c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) || (c.code != 2 && stderr.Len() != 0) {
				t.Errorf("stderr = %q, want it to contain %q and nothing unless the exit code is 2", stderr.String(), c.stderr)
			}
			if c.heads != nil {
				var heads []string
				for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
					heads = append(heads, strings.Fields(line)[0])
				}
				if !slices.Equal(heads, c.heads) {
					t.Errorf("stdout lines start %q, want %q", heads, c.heads)
				}
			}
		})
	}
}
