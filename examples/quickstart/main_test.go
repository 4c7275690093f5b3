package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the quickstart end to end: its valid run writes 64 blocks
// through CAM and compares what reads back byte for byte, so every go test
// checks the payload plane from GPU buffer to SSD store and back.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr string   // substring; empty means stderr must be empty
	}{
		{name: "round trip", code: 0, stdout: []string{
			"prefetched 64 blocks (256 KiB) in ",
			"batches: 2, requests: 128, read: 262144 B, written: 262144 B\n",
			"OK: data written through CAM reads back identically\n",
		}},
		{name: "bad flag", args: []string{"-nosuch"}, code: 2, stderr: "flag provided but not defined: -nosuch"},
		{name: "stray argument", args: []string{"extra"}, code: 2, stderr: `unexpected argument "extra"`},
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
