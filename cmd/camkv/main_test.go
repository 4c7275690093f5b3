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
		// -parallel below 1 was once served as 1; cambench rejects it too.
		{name: "parallel below one", args: []string{"-quick", "-parallel", "-3"}, code: 2, stderr: "camkv: -parallel -3: must be at least 1\n"},
		{name: "bad fault spec", args: []string{"-quick", "-faults", "bogus"}, code: 1, stderr: "camkv: -faults:"},
		{name: "unknown backend", args: []string{"-quick", "-backend", "nosuch"}, code: 1, stderr: `unknown backend "nosuch"`},
		// A negative size was once replaced by the scale default without a word.
		{name: "negative sessions", args: []string{"-quick", "-sessions", "-3"}, code: 1, stderr: "camkv: -sessions -3: must not be negative"},
		{name: "negative ssds", args: []string{"-quick", "-ssds", "-1"}, code: 1, stderr: "camkv: -ssds -1: must not be negative"},
		{name: "negative steps", args: []string{"-quick", "-steps", "-5"}, code: 1, stderr: "camkv: -steps -5: must not be negative"},
		{name: "negative layers", args: []string{"-quick", "-layers", "-2"}, code: 1, stderr: "camkv: -layers -2: must not be negative"},
		{name: "negative dram", args: []string{"-quick", "-dram", "-1"}, code: 1, stderr: "camkv: -dram -1: must not be negative"},
		{name: "negative ctx", args: []string{"-quick", "-ctx", "-1"}, code: 1, stderr: "camkv: -ctx -1: must not be negative"},
		// The quick scale's default machine has four SSDs: a drop-out
		// device beyond them was ignored.
		{name: "faildev out of range", args: []string{"-quick", "-faults", "faildev=4,failat=0"}, code: 1,
			stderr: "camkv: -faults: faildev=4: the machine has 4 SSDs"},
		// A lost BaM block is one line and exit 1, not a crash: BaM does
		// not retry.
		{name: "lost BaM block", args: []string{"-quick", "-backend", "bam", "-faults", "7:1e-3"}, code: 1,
			stderr: "camkv: BaM: xfer(bam): 1 of 5 blocks failed; BaM has no retry path\n"},
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

// TestRunReportsLostBlock: when BaM loses a block with all three backends
// in flight, the other two still print exactly what they print alone, and
// the failure is one stderr line.
func TestRunReportsLostBlock(t *testing.T) {
	faulted := []string{"-quick", "-faults", "7:1e-3"}
	var want bytes.Buffer
	for _, b := range []string{"cam", "spdk"} {
		var stderr bytes.Buffer
		if code := run(append(faulted, "-backend", b), &want, &stderr); code != 0 {
			t.Fatalf("-backend %s: exit code %d, stderr: %s", b, code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(append(faulted, "-parallel", "3"), &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("stdout =\n%s\nwant the CAM and SPDK blocks alone:\n%s", stdout.String(), want.String())
	}
	if !strings.Contains(stderr.String(), "camkv: BaM: xfer(bam): ") || strings.Count(stderr.String(), "\n") != 3 {
		t.Errorf("stderr = %q, want two served lines and one BaM failure line", stderr.String())
	}
}
