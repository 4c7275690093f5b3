package main

import (
	"bytes"
	"strings"
	"testing"

	"camsim/internal/harness"
)

// The last column is padded to its width, so three rows end in spaces:
// quoted line by line to keep them visible.
const tab1Golden = "### tab1 — Architectural design comparison\n" +
	"\n" +
	"== Table I ==\n" +
	"system     initialized by  control plane       data plane               \n" +
	"---------  --------------  ------------------  -------------------------\n" +
	"POSIX I/O  CPU             CPU OS kernel       SSD-CPU memory-GPU memory\n" +
	"BaM        GPU             GPU user I/O queue  SSD-GPU memory           \n" +
	"CAM        GPU             CPU user I/O queue  SSD-GPU memory           \n" +
	"\n" +
	"(tab1 is a static table)\n" +
	"\n"

// A figure in -csv mode is its table as CSV: the x column, then one column
// per series.
const fig4CSV = "# fig4 — BaM SM utilization to saturate N SSDs\n" +
	"SSDs,BaM\n1,19.89\n2,39.79\n3,59.68\n4,79.57\n5,99.46\n" +
	"6,100\n7,100\n8,100\n9,100\n10,100\n11,100\n12,100\n" +
	"(fig4 simulated 5.908ms of virtual time)\n" +
	"\n"

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // exact
		stderr string // substring
	}{
		{name: "tab1 golden", args: []string{"-exp", "tab1"}, code: 0, stdout: tab1Golden, stderr: "tab1 done"},
		{name: "fig4 csv", args: []string{"-exp", "fig4", "-csv"}, code: 0, stdout: fig4CSV, stderr: "fig4 done"},
		// Deleted knobs are usage errors, not silently accepted.
		{name: "no -shards", args: []string{"-shards", "1"}, code: 2, stderr: "flag provided but not defined: -shards"},
		{name: "no -materialize", args: []string{"-materialize"}, code: 2, stderr: "flag provided but not defined: -materialize"},
		{name: "parallel 0", args: []string{"-exp", "fig4", "-quick", "-parallel", "0"}, code: 2, stderr: "cambench: -parallel 0: must be at least 1\n"},
		{name: "parallel -3", args: []string{"-exp", "fig4", "-quick", "-parallel", "-3"}, code: 2, stderr: "cambench: -parallel -3: must be at least 1\n"},
		{name: "bad fault spec", args: []string{"-exp", "tab1", "-faults", "bogus"}, code: 1, stderr: "cambench: -faults:"},
		{name: "unknown experiment", args: []string{"-exp", "nosuch"}, code: 1, stderr: `unknown experiment "nosuch"`},
		// A failed experiment is one line and exit 1, not a stack trace: at
		// this rate the BaM lane of kv loses a block, and BaM does not retry.
		{name: "lost BaM block", args: []string{"-exp", "kv", "-quick", "-faults", "7:1e-3"}, code: 1,
			stderr: "cambench: kv: xfer(bam): 1 of 5 blocks failed; BaM has no retry path\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			if stdout.String() != c.stdout {
				t.Errorf("stdout = %q, want %q", stdout.String(), c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) || strings.Contains(stderr.String(), "goroutine ") {
				t.Errorf("stderr = %q, want it to contain %q and no stack trace", stderr.String(), c.stderr)
			}
		})
	}
}

func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	listed := map[string]bool{}
	for _, l := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, e := range harness.All() {
		if !listed[e.ID] {
			t.Errorf("-list does not name experiment %q:\n%s", e.ID, stdout.String())
		}
	}
}
