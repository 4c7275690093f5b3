package harness

import (
	"bytes"
	"fmt"
	"testing"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/fault"
	"camsim/internal/gemmx"
	"camsim/internal/kvcache"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

// chaosSeeds is the soak breadth: every seed gets its own randomized fault
// schedule, and every schedule is run twice to prove deterministic replay.
const chaosSeeds = 16

// chaosPlan derives a randomized fault schedule from a seed: the rates
// themselves are drawn from a seed-keyed RNG, so the soak covers a spread
// of error/drop/slow mixes while staying fully reproducible.
func chaosPlan(seed uint64) *fault.Plan {
	rng := sim.NewRNG(seed ^ 0xc4a05)
	p := fault.NewPlan(seed)
	p.ErrRate = 1e-4 + 4e-3*rng.Float64()
	p.DropRate = 1e-3 * rng.Float64()
	p.SlowRate = 5e-3 * rng.Float64()
	p.SlowFactor = float64(2 + rng.Int63n(14))
	return p
}

// chaosFingerprint renders everything observable about a faulted run —
// injected faults, recovery work, data-plane stats, virtual end time — as
// one deterministic string.
func chaosFingerprint(env *platform.Env, m *cam.Manager, end sim.Time) string {
	return fmt.Sprintf("inj=%+v rec=%+v cam=%+v end=%d", env.FaultStats(), m.Driver().Recovery(), m.Stats(), end)
}

// chaosSort runs the quickstart sort workload under seed's fault schedule,
// fails on any integrity violation, and returns the run's fingerprint plus
// its injected-fault total.
func chaosSort(t *testing.T, seed uint64) (string, uint64) {
	t.Helper()
	env := platform.New(platform.Options{SSDs: 3, Faults: chaosPlan(seed)})
	b := xfer.NewCAM(env, 4096, nil)
	s := sortx.New(env, b, sortx.Config{
		NumInts: 16 << 10, RunBytes: 16 << 10, ChunkBytes: 4 << 10,
		SortRate: 4e9, MergeRate: 8e9,
	})
	var verr error
	env.E.Go("sort", func(p *sim.Proc) {
		s.Fill(p, seed)
		s.Sort(p)
		verr = s.Verify(p)
	})
	env.Run()
	if verr != nil {
		t.Fatalf("seed %d: sort integrity under faults: %v", seed, verr)
	}
	fs := env.FaultStats()
	return chaosFingerprint(env, b.M, env.E.Now()), fs.Errors + fs.Drops + fs.Slows
}

// chaosGEMM does the same for the quickstart GEMM workload.
func chaosGEMM(t *testing.T, seed uint64) (string, uint64) {
	t.Helper()
	env := platform.New(platform.Options{SSDs: 3, Faults: chaosPlan(seed)})
	b := xfer.NewCAM(env, 4096, nil)
	m := gemmx.New(env, b, gemmx.Config{
		N: 64, K: 64, M: 64, Tile: 32, ComputeRate: 100e12, RealMath: true,
	})
	var verr error
	env.E.Go("gemm", func(p *sim.Proc) {
		m.FillInputs(p, seed)
		m.Run(p)
		verr = m.Verify(p, seed)
	})
	env.Run()
	if verr != nil {
		t.Fatalf("seed %d: GEMM integrity under faults: %v", seed, verr)
	}
	fs := env.FaultStats()
	return chaosFingerprint(env, b.M, env.E.Now()), fs.Errors + fs.Drops + fs.Slows
}

// chaosKV runs the KV-cache serving workload — the one chaos workload that
// writes under load, so injected faults land on spills as well as fills —
// under seed's fault schedule. It fails on any integrity violation and
// returns the run's fingerprint (extended with the per-session decoded-token
// checksums), its injected-fault total, and the recovery work it forced.
func chaosKV(t *testing.T, seed uint64) (string, uint64, uint64) {
	t.Helper()
	cfg := kvcache.DefaultConfig()
	cfg.Layers = 2
	cfg.DRAMBlocks = 40 // floor: 3 sessions * 2 layers * 4 + 8 = 32
	cfg.Seed = seed
	specs := []kvcache.SessionSpec{
		{Prompt: 224, Decode: 10},
		{Prompt: 192, Decode: 8},
		{Prompt: 256, Decode: 6},
	}
	env := platform.New(platform.Options{SSDs: 2, Faults: chaosPlan(seed)})
	b := xfer.NewCAM(env, cfg.BlockBytes, nil)
	srv := kvcache.New(env, b, cfg, specs)
	var verr error
	env.E.Go("kv", func(p *sim.Proc) {
		srv.Serve(p)
		verr = srv.Verify(p)
	})
	env.Run()
	if verr != nil {
		t.Fatalf("seed %d: kv integrity under faults: %v", seed, verr)
	}
	fp := chaosFingerprint(env, b.M, env.E.Now())
	for i := range specs {
		sum, expect := srv.SessionChecksum(i)
		if sum != expect {
			t.Fatalf("seed %d: session %d checksum %#x != expected %#x", seed, i, sum, expect)
		}
		fp += fmt.Sprintf(" s%d=%#x", i, sum)
	}
	fs := env.FaultStats()
	rec := b.M.Driver().Recovery()
	return fp, fs.Errors + fs.Drops + fs.Slows, rec.Retries + rec.Timeouts
}

// TestChaosKVSoak: the serving workload survives 16 randomized fault
// schedules with every decoded-token checksum clean, every seed replays
// byte-identically (fault injection, recovery, traffic, end time, and
// checksums all in the fingerprint), and the soak as a whole both injects
// faults and forces the recovery machinery to actually retry.
func TestChaosKVSoak(t *testing.T) {
	var totalInjected, totalRetries uint64
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		fp1, inj, retries := chaosKV(t, seed)
		fp2, _, _ := chaosKV(t, seed)
		if fp1 != fp2 {
			t.Fatalf("seed %d replay diverged:\n%s\n%s", seed, fp1, fp2)
		}
		totalInjected += inj
		totalRetries += retries
	}
	if totalInjected == 0 {
		t.Fatal("16-seed soak injected nothing — schedules are inert")
	}
	if totalRetries == 0 {
		t.Fatal("16-seed soak never exercised recovery — retries/timeouts all zero")
	}
}

// TestChaosSortSoak: the sort workload survives 16 randomized fault
// schedules with full data integrity, every schedule injects deterministic
// faults, and every seed replays byte-identically.
func TestChaosSortSoak(t *testing.T) {
	var totalInjected uint64
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		if p1, p2 := chaosPlan(seed), chaosPlan(seed); *p1 != *p2 {
			t.Fatalf("seed %d: chaosPlan not deterministic: %+v vs %+v", seed, p1, p2)
		}
		fp1, inj := chaosSort(t, seed)
		fp2, _ := chaosSort(t, seed)
		if fp1 != fp2 {
			t.Fatalf("seed %d replay diverged:\n%s\n%s", seed, fp1, fp2)
		}
		totalInjected += inj
	}
	if totalInjected == 0 {
		t.Fatal("16-seed soak injected nothing — schedules are inert")
	}
}

// TestChaosGEMMSoak: same soak for GEMM.
func TestChaosGEMMSoak(t *testing.T) {
	var totalInjected uint64
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		fp1, inj := chaosGEMM(t, seed)
		fp2, _ := chaosGEMM(t, seed)
		if fp1 != fp2 {
			t.Fatalf("seed %d replay diverged:\n%s\n%s", seed, fp1, fp2)
		}
		totalInjected += inj
	}
	if totalInjected == 0 {
		t.Fatal("16-seed soak injected nothing — schedules are inert")
	}
}

// chaosBaM scatters and gathers rounds of fresh blocks through BaM under
// seed's fault schedule. BaM has no retry path, so a lost or failed
// command loses its block: the run fails if a round reads back more wrong
// blocks than its scatter and gather reported failed, or if the failures
// returned disagree with bam.Stats. It returns the run's fingerprint and
// its timeout count.
func chaosBaM(t *testing.T, seed uint64) (string, uint64) {
	t.Helper()
	const rounds, n, block = 4, 256, 4096
	env := platform.New(platform.Options{SSDs: 3, Faults: chaosPlan(seed)})
	sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	arr := sys.NewArray(block)
	src := env.GPU.Alloc("src", n*block)
	dst := env.GPU.Alloc("dst", n*block)
	blocks := make([]uint64, n)
	var failed uint64
	env.E.Go("bam", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			rng := sim.NewRNG(seed<<8 | uint64(r))
			for i := range src.Bytes() {
				src.Bytes()[i] = byte(rng.Uint64())
			}
			for i := range blocks {
				blocks[i] = uint64((7*i + 13*r) % 1024)
			}
			errs := arr.Scatter(p, blocks, src, 0) + arr.Gather(p, blocks, dst, 0)
			failed += uint64(errs)
			wrong := 0
			for i := 0; i < n*block; i += block {
				if !bytes.Equal(src.Bytes()[i:i+block], dst.Bytes()[i:i+block]) {
					wrong++
				}
			}
			if wrong > errs {
				t.Errorf("seed %d round %d: %d blocks read back wrong, %d reported failed", seed, r, wrong, errs)
			}
		}
	})
	env.Run()
	st := sys.Stats()
	if st.FailedBlocks != failed {
		t.Fatalf("seed %d: bam.Stats counts %d failed blocks, batches returned %d", seed, st.FailedBlocks, failed)
	}
	return fmt.Sprintf("inj=%+v bam=%+v end=%d", env.FaultStats(), st, env.E.Now()), st.Timeouts
}

// TestChaosBaMSoak: BaM's timeout path under the same 16 schedules. Every
// seed replays byte-identically, every block is verified or counted
// failed, and the soak as a whole times commands out.
func TestChaosBaMSoak(t *testing.T) {
	var timeouts uint64
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		fp1, to := chaosBaM(t, seed)
		fp2, _ := chaosBaM(t, seed)
		if fp1 != fp2 {
			t.Fatalf("seed %d replay diverged:\n%s\n%s", seed, fp1, fp2)
		}
		timeouts += to
	}
	if timeouts == 0 {
		t.Fatal("16-seed soak never timed a command out")
	}
}
