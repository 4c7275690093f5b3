//go:build tieperm

// The permuted claim table costs about 3.5 s of CPU per seed, so it stays
// out of go test ./... and runs under its build tag: make shapes-permuted.

package harness

import (
	"fmt"
	"testing"
)

// TestPaperShapesPermutedTies checks every claim again with each engine's
// simultaneous events dispatched in a seeded permutation of their insertion
// order (sim.Engine.PermuteTies), under eight seeds. Which of two events due
// at one instant runs first is arbitrary, so no claim may depend on it, and
// every sort, GEMM and KV checksum must still verify: the experiments panic
// on a verification failure, which fails the seed. The seeds run in
// parallel, each experiment after the other, so a seed holds one
// experiment's memory at a time.
func TestPaperShapesPermutedTies(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkClaimsOn(t, claimResults(t, RunConfig{Quick: true, tieSeed: seed}, 1), "")
		})
	}
}
