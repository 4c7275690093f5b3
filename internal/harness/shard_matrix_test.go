package harness

import (
	"testing"

	"camsim/internal/fault"
)

// TestShardMatrixDeterminism is the runner-pool determinism gate: the same
// experiments rendered at -parallel 1 and -parallel 8 must be byte-identical.
// abl-shard puts a clustered simulation (sim.Cluster) inside the pool; kv
// rides along as the write-heavy workload: its spill/fill/prefetch
// concurrency must render identically no matter how the pool interleaves
// experiments around it.
func TestShardMatrixDeterminism(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig2", "abl-shard", "kv"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	serial := render(mustRunAll(t, exps, 1, nil))
	pooled := render(mustRunAll(t, exps, 8, nil))
	if pooled != serial {
		t.Errorf("parallel=8 rendered different output than parallel=1:\n%s\nvs reference:\n%s", pooled, serial)
	}
}

// TestShardFaultFingerprints runs the clustered experiment under chaos-seeded
// fault schedules: with a process-wide fault plan installed (the cambench
// -faults path — platform picks it up and the drivers arm recovery off it)
// two runs must produce the same rendered output and virtual time, for every
// seed. Injection decisions, timeouts, retries, and device drop-out all ride
// the shard engines, so any host-state leak in the recovery machinery shows
// up here.
func TestShardFaultFingerprints(t *testing.T) {
	e, ok := Get("abl-shard")
	if !ok {
		t.Fatal("experiment abl-shard not registered")
	}
	defer fault.SetDefault(nil)
	for _, seed := range []uint64{3, 11} {
		fault.SetDefault(chaosPlan(seed))
		ref := e.Run(RunConfig{Quick: true})
		again := e.Run(RunConfig{Quick: true})
		if a, b := ref.String(), again.String(); a != b {
			t.Errorf("seed %d: second run diverged from the first under faults:\n%s\nvs:\n%s", seed, b, a)
		}
		if ref.SimElapsed != again.SimElapsed {
			t.Errorf("seed %d: second run simulated %s, first simulated %s", seed, again.SimElapsed, ref.SimElapsed)
		}
		if ref.SimElapsed <= 0 {
			t.Errorf("seed %d: SimElapsed = %s, want > 0", seed, ref.SimElapsed)
		}
	}
}
