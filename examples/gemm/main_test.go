package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun multiplies the example's 128×128 matrices through CAM with real
// float32 math, whose own comparison against the dense reference is the
// check, and rejects an argument the program does not take.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr string   // substring; empty means stderr must be empty
	}{
		{name: "verified product", code: 0, stdout: []string{
			"C[128x128] = A x B in 32x32 tiles over 12 SSDs\n",
			"  64 tile-pair loads, 512.00KiB read at ",
			"result matches the dense reference bit-for-bit\n",
		}},
		{name: "stray argument", args: []string{"extra"}, code: 2, stderr: `gemm: unexpected argument "extra"`},
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
