package harness

import (
	"fmt"

	"camsim/internal/kvcache"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

func init() {
	register("kv", "SSD-backed LLM KV-cache serving: CAM vs BaM vs SPDK (extension beyond the paper)", runKV)
}

// KVParams selects the serving-workload shape. The zero value means "use
// the scale defaults"; cmd/camkv overrides individual fields from flags.
type KVParams struct {
	Sessions int
	Prompt   int // base prompt length in tokens (per-session lengths stagger around it)
	Decode   int // decoded tokens per session
	Layers   int
	DRAM     int // tier capacity in block frames (0 → sized from the working set)
	SSDs     int
	Seed     uint64
}

// KVDefaults fills in unset fields at the given scale. Quick keeps the
// soak/CI runs cheap; full pushes roughly two thirds of the context out
// of the tier so the spill/fill path carries real load.
func KVDefaults(p KVParams, quick bool) KVParams {
	def := KVParams{Sessions: 12, Prompt: 448, Decode: 64, Layers: 8, DRAM: 512, SSDs: 8, Seed: 1}
	if quick {
		def = KVParams{Sessions: 4, Prompt: 224, Decode: 24, Layers: 4, DRAM: 96, SSDs: 4, Seed: 1}
	}
	if p.Sessions <= 0 {
		p.Sessions = def.Sessions
	}
	if p.Prompt <= 0 {
		p.Prompt = def.Prompt
	}
	if p.Decode <= 0 {
		p.Decode = def.Decode
	}
	if p.Layers <= 0 {
		p.Layers = def.Layers
	}
	if p.SSDs <= 0 {
		p.SSDs = def.SSDs
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	if p.DRAM <= 0 {
		p.DRAM = def.DRAM
	}
	return p
}

// kvConfig expands params into the kvcache config plus session specs:
// prompts stagger deterministically around the base so sessions cross
// block boundaries at different steps. The tier is re-floored against the
// pinned-working-set bound so flag combinations cannot trip New's
// deadlock guard.
func kvConfig(p KVParams) (kvcache.Config, []kvcache.SessionSpec) {
	cfg := kvcache.DefaultConfig()
	cfg.Layers = p.Layers
	cfg.DRAMBlocks = p.DRAM
	cfg.Seed = p.Seed
	if min := p.Sessions*p.Layers*(cfg.Window+cfg.TopK) + cfg.EvictBatch; cfg.DRAMBlocks < min {
		cfg.DRAMBlocks = min
	}
	specs := make([]kvcache.SessionSpec, p.Sessions)
	for i := range specs {
		prompt := p.Prompt + cfg.BlockTokens*(i%4) - cfg.BlockTokens/2*(i%3)
		if prompt < cfg.BlockTokens {
			prompt = cfg.BlockTokens
		}
		specs[i] = kvcache.SessionSpec{Prompt: prompt, Decode: p.Decode}
	}
	return cfg, specs
}

// kvBackend builds the named list backend over a fresh environment.
func kvBackend(env *platform.Env, sys string, blockBytes int64) xfer.ListBackend {
	switch sys {
	case "CAM":
		return xfer.NewCAM(env, blockBytes, nil)
	case "BaM":
		return xfer.NewBaM(env, newBaM(env), blockBytes)
	case "SPDK":
		return xfer.NewSPDK(env, blockBytes, 8)
	}
	panic("harness: unknown kv backend " + sys)
}

// KVSystems is the fixed comparison order of the serving experiment.
var KVSystems = []string{"CAM", "BaM", "SPDK"}

// KVRun serves the workload on one backend and returns the server after
// Serve + Verify (any integrity violation panics — a corrupt decode is a
// bug, not a data point). cmd/camkv and the chaos soak reuse this.
func KVRun(cfg RunConfig, p KVParams, sys string) (*kvcache.Server, *platform.Env) {
	p = KVDefaults(p, cfg.Quick)
	kcfg, specs := kvConfig(p)
	env := cfg.newEnv(platform.Options{SSDs: p.SSDs})
	lb := kvBackend(env, sys, kcfg.BlockBytes)
	srv := kvcache.New(env, lb, kcfg, specs)
	env.E.Go("kv.serve", func(proc *sim.Proc) {
		srv.Serve(proc)
		if err := srv.Verify(proc); err != nil {
			panic(fmt.Sprintf("kv(%s): %v", sys, err))
		}
	})
	runEnv(cfg, env)
	return srv, env
}

// runKV is the registered experiment: the same multi-session decode
// workload served through each management scheme, reporting serving
// metrics (tokens/s, TTFT, step latency) next to the tier's hit and
// prefetch-coverage rates and the SSD traffic behind them.
func runKV(cfg RunConfig) *Result {
	r := &Result{ID: "kv", Title: "KV-cache serving: multi-session decode with SSD spill"}
	p := KVDefaults(KVParams{}, cfg.Quick)
	t := metrics.NewTable("kv",
		fmt.Sprintf("%d sessions x %d layers, ~%d+%d tokens, %d-frame tier, %d SSDs",
			p.Sessions, p.Layers, p.Prompt, p.Decode, p.DRAM, p.SSDs),
		"system", "tok/s", "TTFT ms", "step p50 us", "step p99 us",
		"hit %", "prefetch %", "fills", "spills", "clean drops")
	for _, sys := range KVSystems {
		srv, _ := KVRun(cfg, p, sys)
		st := srv.Stats()
		t.AddRow(sys,
			st.TokensPerSec(),
			srv.TTFT().Mean()/1000,
			srv.StepLatency().Percentile(50),
			srv.StepLatency().Percentile(99),
			100*st.HitRate(),
			100*st.PrefetchRate(),
			st.Fills, st.Spills, st.CleanDrops)
		r.Notes = append(r.Notes, sys+" "+srv.StepLatency().Summary("us"))
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"every decoded-token checksum verified against the analytic stamp fold; immutable blocks make refetches clean drops",
		"CAM hides fills behind decode via async list batches; BaM pins SM share per batch, so decode kernels contend; SPDK stages per block through host helpers")
	return r
}
