package main

import (
	"time"

	"camsim/internal/harness"
	"camsim/internal/kvcache"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// kvShape is the serving shape: twelve sessions of an eight-layer model
// with a tier that holds roughly a fifth of the context, decoding long
// enough (6144 steps) for a p99 with more than ten samples beyond it.
// TestKVShapeSeeds guards it; see README "Known failure outside bench/".
var kvShape = harness.KVParams{Sessions: 12, Prompt: 4096, Decode: 512, Layers: 8, DRAM: 2048, SSDs: 8}

// kvSeed folds --seed onto the 64 seeds of 1..70 on which kvShape serves and
// verifies clean. On 11, 45, 53, 64, 65 and 67 the simulator dies of the
// publish/settle defect described in the README, in a simulation goroutine,
// which nothing outside internal/ can catch; the benchmark's workloads must
// be ones on which no operation fails. Seeds 1–10 map to themselves.
func kvSeed(seed uint64) uint64 {
	s := (seed+63)%64 + 1 // 1..64
	for _, bad := range []uint64{11, 45, 53, 64, 65, 67} {
		if s >= bad {
			s++
		}
	}
	return s
}

func (p params) kvParams() harness.KVParams {
	kp := kvShape
	kp.Prompt = p.scaled(kp.Prompt, 64)
	kp.Decode = p.scaled(kp.Decode, 8)
	kp.Seed = kvSeed(p.seed)
	return kp
}

// kvServe serves the workload harness.KVRun serves on CAM (the cmd/camkv
// path), built here from the same exported constructors so that set-up,
// serving and verification can be timed apart and the serving phase cut
// into slices. TestKVServeMatchesKVRun holds the two to identical results.
type kvServe struct {
	kp  harness.KVParams
	env *platform.Env
	cam *xfer.CAMBackend
	srv *kvcache.Server

	verifyErr error
}

// kvMachine mirrors harness.KVRun's construction: config from the params,
// session prompts staggered around the base so sessions cross block
// boundaries at different steps, tier floored at the pinned working set.
func kvMachine(kp harness.KVParams) (*platform.Env, *xfer.CAMBackend, *kvcache.Server) {
	cfg := kvcache.DefaultConfig()
	cfg.Layers, cfg.DRAMBlocks, cfg.Seed = kp.Layers, kp.DRAM, kp.Seed
	cfg.DRAMBlocks = max(cfg.DRAMBlocks, kp.Sessions*kp.Layers*(cfg.Window+cfg.TopK)+cfg.EvictBatch)
	specs := make([]kvcache.SessionSpec, kp.Sessions)
	for i := range specs {
		prompt := kp.Prompt + cfg.BlockTokens*(i%4) - cfg.BlockTokens/2*(i%3)
		specs[i] = kvcache.SessionSpec{Prompt: max(prompt, cfg.BlockTokens), Decode: kp.Decode}
	}
	env := platform.New(platform.Options{SSDs: kp.SSDs})
	lb := xfer.NewCAM(env, cfg.BlockBytes, nil)
	return env, lb, kvcache.New(env, lb, cfg, specs)
}

func setupKV(p params, sp spans) instance {
	w := &kvServe{kp: p.kvParams()}
	t0 := time.Now()
	w.env, w.cam, w.srv = kvMachine(w.kp)
	sp.since("platform.build_ms", t0)
	return w
}

// run serves every session to completion. A watcher process wakes once per
// simulated millisecond and ticks every 10 ms of simulated prefill and
// every 64 decoded tokens. It shares no state with the server and draws
// no random numbers, and events at equal times keep their relative order,
// so the simulation is the one KVRun runs.
func (w *kvServe) run(tick func()) {
	served := false
	w.env.E.Go("kv.serve", func(p *sim.Proc) {
		w.srv.Serve(p)
		served = true
	})
	w.env.E.Go("bench.watch", func(p *sim.Proc) {
		nextAt, nextTok := 10*sim.Millisecond, uint64(64)
		for !served {
			p.Sleep(sim.Millisecond)
			switch tok := w.srv.Stats().DecodedTokens; {
			case tok >= nextTok:
				nextTok = tok + 64
				tick()
			case tok == 0 && p.Now() >= nextAt:
				nextAt += 10 * sim.Millisecond
				tick()
			}
		}
	})
	w.env.Run()
}

func (w *kvServe) verify(r *rep) {
	w.verifyErr = nil
	w.env.E.Go("kv.verify", func(p *sim.Proc) { w.verifyErr = w.srv.Verify(p) })
	w.env.Run()
	r.attempted = int64(w.kp.Sessions * w.kp.Decode)
	r.failed = r.attempted - int64(w.srv.Stats().DecodedTokens)
	if w.verifyErr != nil || r.failed < 0 {
		r.failed = r.attempted
	}
}

func (w *kvServe) collect(r *rep) {
	st := w.srv.Stats()
	m := r.model
	m["sim_s"] = (st.LastEnd - st.FirstArrival).Seconds()
	m["sim_lat_p50_us"] = w.srv.StepLatency().Percentile(50)
	m["sim_lat_p99_us"] = w.srv.StepLatency().Percentile(99)
	m["sim_tokens_per_s"] = st.TokensPerSec()
	m["sim_ttft_p50_ms"] = w.srv.TTFT().Percentile(50) / 1000
	m["kvcache.hit_rate"] = st.HitRate()
	m["kvcache.prefetch_rate"] = st.PrefetchRate()
	m["kvcache.fills"] = float64(st.Fills)
	m["kvcache.spills"] = float64(st.Spills)
	m["kvcache.clean_drops"] = float64(st.CleanDrops)
	collectCAM(r, w.cam.M, w.env)
}

func (w *kvServe) shutdown() { w.env.E.Shutdown() }
