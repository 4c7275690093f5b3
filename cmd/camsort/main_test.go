package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSortsOnEveryBackend sorts 2^16 real keys over four SSDs on each
// backend: the keys go through the drivers into the SSD stores and back,
// and the sort's own verification line is the check.
func TestRunSortsOnEveryBackend(t *testing.T) {
	for _, backend := range []string{"cam", "spdk", "posix", "bam"} {
		t.Run(backend, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", backend}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if !strings.HasPrefix(stdout.String(), "sorted 65536 keys") ||
				!strings.Contains(stdout.String(), "verification: sorted order and input permutation OK") {
				t.Errorf("stdout lacks the sort and verification lines:\n%s", stdout.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr = %q, want nothing", stderr.String())
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr []string // substrings
	}{
		{name: "bad flag", args: []string{"-nosuch"}, code: 2, stderr: []string{"flag provided but not defined: -nosuch"}},
		{name: "unknown backend", args: []string{"-keys", "65536", "-ssds", "4", "-backend", "nosuch"}, code: 1, stderr: []string{`unknown backend "nosuch"`}},
		{name: "bad fault spec", args: []string{"-faults", "bogus"}, code: 1, stderr: []string{"camsort: -faults:"}},
		// Too few keys for one per run: the message names the flags the
		// user set, not the derived run size.
		{name: "too few keys", args: []string{"-keys", "3"}, code: 1, stderr: []string{"-keys 3", "-run"}},
		{name: "run not a chunk multiple", args: []string{"-keys", "65536", "-ssds", "4", "-run", "1000"}, code: 1, stderr: []string{"-run 1000", "-chunk"}},
		// A zero or negative chunk, and a chunk whose SPDK quarter is zero,
		// are sort shape errors rather than a divide by zero or a negative
		// staging buffer; no SSDs is an error rather than a platform of the
		// default twelve.
		{name: "zero chunk", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "0"}, code: 1, stderr: []string{"-chunk 0", "ChunkBytes 0 must be positive"}},
		{name: "negative spdk chunk", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "-8", "-backend", "spdk"}, code: 1, stderr: []string{"-chunk -8", "ChunkBytes -8 must be positive"}},
		{name: "spdk block below one byte", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "2", "-backend", "spdk"}, code: 1, stderr: []string{"-chunk 2", "backend block 0 must be positive"}},
		{name: "zero ssds", args: []string{"-ssds", "0"}, code: 1, stderr: []string{"-ssds 0"}},
		{name: "negative ssds", args: []string{"-ssds", "-1"}, code: 1, stderr: []string{"-ssds -1"}},
		// A drop-out device the machine does not have was ignored: the
		// sort ran clean with nothing dead.
		{name: "faildev out of range", args: []string{"-ssds", "2", "-faults", "faildev=5,failat=0"}, code: 1,
			stderr: []string{"camsort: -faults: faildev=5: the machine has 2 SSDs"}},
		// A lost BaM block is one line and exit 1, not a stack trace: BaM
		// does not retry.
		{name: "lost BaM block", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", "bam", "-faults", "7:0.05"}, code: 1,
			stderr: []string{"camsort: xfer(bam): 1 of 1 blocks failed; BaM has no retry path\n"}},
		// So is a stripe the kernel stack failed under POSIX: the sort once
		// ran on over the hole and failed its verification instead.
		{name: "failed kernel stripe", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", "posix", "-faults", "7:0.05"}, code: 1,
			stderr: []string{"camsort: xfer(posix): 1 of 1 granules failed; the kernel stack has no retry path\n"}},
		// And so is a block a dead device lost past the driver's retries.
		{name: "dead device under SPDK", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", "spdk", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: []string{"camsort: xfer(spdk): 1 of 4 granules failed; the driver's retries did not recover them\n"}},
		{name: "dead device under CAM", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", "cam", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: []string{"camsort: xfer(cam): 1 of 1 blocks failed; the driver's retries did not recover them\n"}},
		// The kernel stack never completes a command to a dead device, so
		// the run goes idle with the sort blocked: that is an unfinished
		// sort, not a 0 ns one that verified.
		{name: "dead device under POSIX", args: []string{"-keys", "65536", "-ssds", "4", "-chunk", "65536", "-backend", "posix", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: []string{"camsort: the sort on POSIX never finished"}},
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
			for _, want := range c.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
				}
			}
		})
	}
}
