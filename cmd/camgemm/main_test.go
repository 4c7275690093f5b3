package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunMultipliesOnEveryBackend multiplies real 64×64 float32 matrices
// over two SSDs on each backend; the dense-reference check is the test.
func TestRunMultipliesOnEveryBackend(t *testing.T) {
	for _, backend := range []string{"cam", "bam", "gds", "spdk"} {
		t.Run(backend, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-n", "64", "-tile", "16", "-ssds", "2", "-verify", "-backend", backend}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if !strings.HasPrefix(stdout.String(), "C[64 x 64] = A x B in 16 x 16 tiles") ||
				!strings.Contains(stdout.String(), "over 2 SSDs") ||
				!strings.Contains(stdout.String(), "verification: matches dense reference exactly") {
				t.Errorf("stdout lacks the multiply and verification lines:\n%s", stdout.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr = %q, want nothing", stderr.String())
			}
		})
	}
}

func TestRunReportsFaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-n", "64", "-tile", "16", "-ssds", "2", "-verify", "-faults", "7:1e-3"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"verification: matches", "faults:     injected", "recovery:   timeouts="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunRejects: a bad flag is a usage error (2); a bad value exits 1 with
// a message naming the flag before any backend is built — where -n 0 and
// -tile 0 panicked, and -ssds 0 reported zero SSDs for a platform that
// built its default twelve — and so does a multiply that loses a block, on
// every backend.
func TestRunRejects(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		{name: "bad flag", args: []string{"-nosuch"}, code: 2, stderr: "flag provided but not defined: -nosuch"},
		{name: "unknown backend", args: []string{"-backend", "nosuch"}, code: 1, stderr: `unknown backend "nosuch"`},
		{name: "bad fault spec", args: []string{"-faults", "bogus"}, code: 1, stderr: "camgemm: -faults:"},
		{name: "zero n", args: []string{"-n", "0"}, code: 1, stderr: "-n 0, -tile 512"},
		{name: "zero tile", args: []string{"-tile", "0"}, code: 1, stderr: "-n 2048, -tile 0"},
		{name: "n not a tile multiple", args: []string{"-n", "64", "-tile", "24"}, code: 1, stderr: "-n 64, -tile 24"},
		{name: "tile not whole LBAs", args: []string{"-n", "48", "-tile", "24", "-backend", "spdk"}, code: 1, stderr: "-tile 24: gemmx: backend block 2304 is not whole 512-byte LBAs"},
		{name: "zero ssds", args: []string{"-ssds", "0"}, code: 1, stderr: "-ssds 0"},
		// A drop-out device the machine does not have was ignored.
		{name: "faildev out of range", args: []string{"-ssds", "2", "-faults", "faildev=2,failat=0"}, code: 1,
			stderr: "camgemm: -faults: faildev=2: the machine has 2 SSDs"},
		// A lost BaM block is one line and exit 1, not a stack trace: BaM
		// does not retry.
		{name: "lost BaM block", args: []string{"-n", "64", "-tile", "16", "-ssds", "4", "-backend", "bam", "-faults", "7:1e-3"}, code: 1,
			stderr: "camgemm: xfer(bam): 1 of 1 blocks failed; BaM has no retry path\n"},
		// So is a block a dead device lost past the driver's retries: the
		// multiply once ran on over the hole and failed its verification.
		{name: "dead device under GDS", args: []string{"-n", "256", "-tile", "64", "-verify", "-ssds", "4", "-backend", "gds", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: "camgemm: xfer(gds): 1 command(s) of a 1-block transfer failed; the driver's retries did not recover them\n"},
		{name: "dead device under SPDK", args: []string{"-n", "256", "-tile", "64", "-verify", "-ssds", "4", "-backend", "spdk", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: "camgemm: xfer(spdk): 1 of 1 granules failed; the driver's retries did not recover them\n"},
		{name: "dead device under CAM", args: []string{"-n", "256", "-tile", "64", "-verify", "-ssds", "4", "-backend", "cam", "-faults", "faildev=1,failat=0"}, code: 1,
			stderr: "camgemm: xfer(cam): 1 of 1 blocks failed; the driver's retries did not recover them\n"},
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
