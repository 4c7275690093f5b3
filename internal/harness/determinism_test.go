package harness

import (
	"fmt"
	"testing"
)

// TestDoubleRunDeterminism is the dynamic twin of TestDeterminismRules (the
// static rules, at the module root): running the same experiment twice with
// the same configuration in one process must render byte-identical output.
// Go randomizes map iteration per range statement (not just per process),
// so a map order that leaks into output shows up here as a diff between the
// two runs.
//
// The experiments chosen cover the subsystems with the most internal state
// while staying cheap enough for -race runs: kernel stacks (fig2), the CAM
// sync-vs-async data paths (fig11), per-request CPU accounting (fig13), the
// FTL's garbage collector (abl-ftl), and the KV-cache serving tier with its
// concurrent spill/fill/prefetch machinery (kv). Each pair runs once clean
// and once under each of two chaos-seeded plans in RunConfig.Faults (the
// cambench -faults path): injection decisions, timeouts, retries and device
// drop-out must replay exactly too. Every subtest runs in parallel with the
// others, each pass with its own plan, so a plan leaking from one run into
// another's machines shows up as a diff. kv sits the faulted passes out:
// its BaM arm has no retry path and panics on a lost block.
func TestDoubleRunDeterminism(t *testing.T) {
	for _, seed := range []uint64{0, 3, 11} {
		prefix, names := "", []string{"fig2", "fig11", "fig13", "abl-ftl", "kv"}
		cfg := RunConfig{Quick: true}
		if seed != 0 {
			prefix, names, cfg.Faults = fmt.Sprintf("faults%d/", seed), names[:4], chaosPlan(seed)
		}
		for _, id := range names {
			t.Run(prefix+id, func(t *testing.T) {
				t.Parallel()
				e, ok := Get(id)
				if !ok {
					t.Fatalf("experiment %q not registered", id)
				}
				first := e.Run(cfg)
				second := e.Run(cfg)
				if a, b := first.String(), second.String(); a != b {
					t.Errorf("%s: two identically-configured runs rendered different output:\nrun 1:\n%s\nrun 2:\n%s", id, a, b)
				}
				if first.SimElapsed != second.SimElapsed {
					t.Errorf("%s: simulated %s of virtual time on run 1 but %s on run 2", id, first.SimElapsed, second.SimElapsed)
				}
				if first.SimElapsed <= 0 {
					t.Errorf("%s: SimElapsed = %s, want > 0 (runEnv accounting broken?)", id, first.SimElapsed)
				}
			})
		}
	}
}
