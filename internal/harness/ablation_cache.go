package harness

import (
	"camsim/internal/cam"
	"camsim/internal/gpucache"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/workload"
)

func init() {
	register("abl-cache", "Ablation: BaM's GPU software cache under access skew", runAblCache)
}

// runAblCache measures BaM gather throughput with and without its GPU
// software cache across access skews, against plain CAM. Under heavy skew
// the cache absorbs most requests; under uniform access it cannot, and
// CAM's overlap advantage is untouched either way (the paper evaluates
// GIDS and CAM cache-less for exactly this reason).
func runAblCache(cfg RunConfig) *Result {
	r := &Result{ID: "abl-cache", Title: "GPU software cache vs access skew"}
	const ssds = 4
	const blockBytes = 4096
	span := uint64(1 << 18)
	batches := 24
	perBatch := 1024
	if cfg.Quick {
		batches = 10
	}

	runBaM := func(gen workload.Generator, withCache bool) (gbps float64, hitRate float64) {
		env := cfg.newEnv(platform.Options{SSDs: ssds})
		arr := newBaM(env).NewArray(blockBytes)
		var c *gpucache.Cache
		if withCache {
			// 32 Mi of cache over a 1 Gi logical span.
			c = gpucache.New(env.GPU, "c", gpucache.Config{Sets: 1024, Ways: 8, LineBytes: blockBytes})
			arr.AttachCache(c)
		}
		gbps = bamRun(cfg, env, arr, blockBytes, load{nvme.OpRead, gen, perBatch, batches, 1}) / 1e9
		if c != nil {
			hitRate = c.Stats().HitRate()
		}
		return
	}
	runCAM := func(gen workload.Generator) float64 {
		ccfg := cam.DefaultConfig(ssds)
		ccfg.BlockBytes = blockBytes
		ccfg.MaxBatch = perBatch
		v, _, _ := camRun(cfg, platform.Options{SSDs: ssds}, ccfg, load{nvme.OpRead, gen, perBatch, batches, 1})
		return v / 1e9
	}

	t := metrics.NewTable("abl-cache", "BaM GPU cache vs skew (4 SSDs, 4KB blocks)",
		"workload", "BaM GB/s", "BaM+cache GB/s", "cache hit rate", "CAM GB/s")
	cases := []struct {
		name  string
		theta float64
	}{{"uniform", 0}, {"zipf 0.9", 0.9}, {"zipf 0.99", 0.99}}
	for _, cse := range cases {
		mk := func(seed uint64) workload.Generator {
			if cse.theta == 0 {
				return workload.NewUniform(seed, span)
			}
			return workload.NewZipfian(seed, span, cse.theta)
		}
		plain, _ := runBaM(mk(1), false)
		cached, hr := runBaM(mk(1), true)
		camv := runCAM(mk(1))
		t.AddRow(cse.name, plain, cached, hr, camv)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"skew lets BaM's cache absorb SSD traffic; uniform access defeats it, and CAM needs neither")
	return r
}
