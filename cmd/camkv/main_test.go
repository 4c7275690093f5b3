package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejects(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		// The deleted knob is a usage error, not silently accepted.
		{name: "no -shards", args: []string{"-shards", "1"}, code: 2, stderr: "flag provided but not defined: -shards"},
		{name: "bad fault spec", args: []string{"-quick", "-faults", "bogus"}, code: 1, stderr: "camkv: -faults:"},
		{name: "unknown backend", args: []string{"-quick", "-backend", "nosuch"}, code: 1, stderr: `unknown backend "nosuch"`},
		// A negative size was once replaced by the scale default without a word.
		{name: "negative sessions", args: []string{"-quick", "-sessions", "-3"}, code: 1, stderr: "camkv: -sessions -3: must not be negative"},
		{name: "negative ssds", args: []string{"-quick", "-ssds", "-1"}, code: 1, stderr: "camkv: -ssds -1: must not be negative"},
		{name: "negative steps", args: []string{"-quick", "-steps", "-5"}, code: 1, stderr: "camkv: -steps -5: must not be negative"},
		{name: "negative layers", args: []string{"-quick", "-layers", "-2"}, code: 1, stderr: "camkv: -layers -2: must not be negative"},
		{name: "negative dram", args: []string{"-quick", "-dram", "-1"}, code: 1, stderr: "camkv: -dram -1: must not be negative"},
		{name: "negative ctx", args: []string{"-quick", "-ctx", "-1"}, code: 1, stderr: "camkv: -ctx -1: must not be negative"},
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

// TestRunFixedOrder serves every backend with all three in flight: stdout
// lists them in comparison order whatever order they finish in, and the wall
// times stay on stderr. Seed 2 is the one that crashed the CAM backend for
// two PRs before a benchmark sizing run found it.
func TestRunFixedOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "2", "-parallel", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var heads []string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, " ") {
			head, _, _ := strings.Cut(l, ":")
			heads = append(heads, head)
		}
	}
	if got := strings.Join(heads, ","); got != "CAM,BaM,SPDK" {
		t.Errorf("backends printed as %s, want CAM,BaM,SPDK:\n%s", got, stdout.String())
	}
	if strings.Contains(stdout.String(), "wall") || !strings.Contains(stderr.String(), "served in") {
		t.Errorf("wall-clock diagnostics belong on stderr only:\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
	}
}
