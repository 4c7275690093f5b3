package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTrains runs one small iteration per system: every run prints its
// per-iteration line, and the two together print the speedup. The trace
// line is pinned byte for byte.
func TestRunTrains(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdout []string // substrings
	}{
		{name: "both", args: []string{"-nodes", "20000", "-iters", "1", "-ssds", "2"},
			stdout: []string{"GIDS  GCN", "CAM   GCN", "CAM speedup over GIDS"}},
		{name: "cam with trace", args: []string{"-nodes", "20000", "-iters", "1", "-ssds", "2", "-system", "cam", "-model", "gat", "-trace"},
			stdout: []string{"CAM   GAT", "\ntrace: span=34.562ms io-busy=31.125ms compute-busy=5.307ms overlapped=1.895ms (36% of compute hidden under I/O)\n"}},
		// A 2048-seed minibatch samples ≈474 000 nodes: more than a CAM batch
		// held when the trainer's config was sized by hand, which panicked.
		{name: "cam at batch 2048", args: []string{"-iters", "1", "-ssds", "2", "-system", "cam", "-batch", "2048"},
			stdout: []string{"CAM   GCN", "474483 nodes/iter"}},
		{name: "gids on igb", args: []string{"-nodes", "20000", "-iters", "1", "-ssds", "2", "-system", "gids", "-dataset", "igb", "-model", "sage"},
			stdout: []string{"GIDS  GRAPHSAGE  on IGB-full"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr = %q, want nothing", stderr.String())
			}
		})
	}
}

// TestRunRejects: a bad flag is a usage error (2); a bad value exits 1 with
// a message naming the flag, and prints nothing on stdout — where a zero
// -iters divided by zero, a zero -batch emptied a CAM batch, a -batch above
// -nodes never finished drawing distinct seeds, and an unknown -system ran
// nothing and exited 0.
func TestRunRejects(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		{name: "bad flag", args: []string{"-nosuch"}, code: 2, stderr: "flag provided but not defined: -nosuch"},
		{name: "unknown dataset", args: []string{"-dataset", "nosuch"}, code: 1, stderr: `unknown dataset "nosuch"`},
		{name: "unknown model", args: []string{"-model", "nosuch"}, code: 1, stderr: `unknown model "nosuch"`},
		{name: "unknown system", args: []string{"-system", "foo"}, code: 1, stderr: `unknown system "foo"`},
		{name: "zero iters", args: []string{"-iters", "0"}, code: 1, stderr: "-iters 0"},
		{name: "zero batch", args: []string{"-batch", "0"}, code: 1, stderr: "-batch 0"},
		{name: "batch above nodes", args: []string{"-nodes", "100"}, code: 1, stderr: "-batch 512 exceeds -nodes 100"},
		{name: "zero ssds", args: []string{"-ssds", "0"}, code: 1, stderr: "-ssds 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), c.stderr)
			}
		})
	}
}
