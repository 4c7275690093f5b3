package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun sorts the example's 2^21 keys through CAM, whose own verification
// line is the check, and rejects an argument the program does not take.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr string   // substring; empty means stderr must be empty
	}{
		{name: "sort", code: 0, stdout: []string{
			"sorted 2097152 keys out-of-core on 12 SSDs\n",
			"  verified: sorted and a permutation of the input\n",
		}},
		{name: "bad flag", args: []string{"-keys", "8"}, code: 2, stderr: "flag provided but not defined: -keys"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout = %q, want it to contain %q", stdout.String(), want)
				}
			}
			if c.stderr == "" && stderr.Len() != 0 || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr = %q, want %q", stderr.String(), c.stderr)
			}
		})
	}
}
