package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRun trains the example's GAT on both pipelines: CAM, which hides the
// feature I/O under the training kernel, must beat GIDS on BaM. An argument
// the program does not take is rejected.
func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		speedup bool   // stdout must report a CAM speedup above 1
		stderr  string // substring; empty means stderr must be empty
	}{
		{name: "CAM beats GIDS", code: 0, speedup: true},
		{name: "stray argument", args: []string{"extra"}, code: 2, stderr: `gnn: unexpected argument "extra"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			if c.speedup {
				_, line, _ := strings.Cut(stdout.String(), "CAM speedup: ")
				var x float64
				if _, err := fmt.Sscanf(line, "%fx", &x); err != nil || x <= 1 {
					t.Errorf("CAM speedup %v (%v), want > 1:\n%s", x, err, stdout.String())
				}
			}
			if c.stderr == "" && stderr.Len() != 0 || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr = %q, want %q", stderr.String(), c.stderr)
			}
		})
	}
}
