package harness

import (
	"fmt"

	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out. They are not paper
// figures; they justify CAM's mechanisms in isolation.

func init() {
	register("abl-dyncores", "Ablation: dynamic core adjustment vs fixed core counts", runAblDynCores)
	register("abl-batch", "Ablation: CAM batch size vs throughput", runAblBatch)
	register("abl-outstanding", "Ablation: outstanding prefetch batches (pipeline depth)", runAblOutstanding)
}

// runAblDynCores runs an alternating compute-heavy / I-O-heavy workload
// under fixed core counts and under dynamic adjustment, reporting both the
// completion time and the integrated core-seconds consumed — the dynamic
// policy should match max-core performance at well below max-core cost.
func runAblDynCores(cfg RunConfig) *Result {
	r := &Result{ID: "abl-dyncores", Title: "Dynamic core adjustment"}
	const ssds = 8
	batches := 40
	if cfg.Quick {
		batches = 16
	}

	type outcome struct {
		elapsed  sim.Time
		coreSecs float64
		endCores int
	}
	runOne := func(dynamic bool, cores int) outcome {
		env := cfg.newEnv(platform.Options{SSDs: ssds})
		ccfg := cam.DefaultConfig(ssds)
		ccfg.DynamicCores = dynamic
		ccfg.Cores = cores
		ccfg.AdjustPeriod = 2
		mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
		dst := mgr.Alloc("d", 1024*4096)
		blocks := make([]uint64, 1024)
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		var coreSecs float64
		env.E.Go("app", func(p *sim.Proc) {
			for b := 0; b < batches; b++ {
				t0 := p.Now()
				mgr.Prefetch(p, blocks, dst, 0)
				// Compute long enough that I/O hides under it half the
				// time: the dynamic policy should shed cores there.
				var kt sim.Time
				if b%2 == 0 {
					kt = 2 * sim.Millisecond
				} else {
					kt = 100 * sim.Microsecond
				}
				env.GPU.RunKernel(p, gpu.KernelSpec{Name: "c", Threads: 4096, FullOccupancyTime: kt})
				mgr.PrefetchSynchronize(p)
				coreSecs += float64(mgr.ActiveCores()) * (p.Now() - t0).Seconds()
			}
		})
		end := runEnv(cfg, env)
		return outcome{elapsed: end, coreSecs: coreSecs, endCores: mgr.ActiveCores()}
	}

	t := metrics.NewTable("abl-dyncores", "Dynamic vs fixed reactor cores (8 SSDs, mixed workload)",
		"policy", "elapsed ms", "core-ms consumed", "final cores")
	for _, fixed := range []int{2, 4} {
		o := runOne(false, fixed)
		t.AddRow(fmt.Sprintf("fixed %d", fixed), o.elapsed.Seconds()*1000, o.coreSecs*1000, o.endCores)
	}
	o := runOne(true, 0)
	t.AddRow("dynamic N/4..N/2", o.elapsed.Seconds()*1000, o.coreSecs*1000, o.endCores)
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"dynamic adjustment tracks the max-core completion time while consuming fewer core-seconds")
	return r
}

// runAblBatch sweeps the prefetch batch size at fixed total volume: bigger
// batches amortize the publish handshake and keep queues deeper.
func runAblBatch(cfg RunConfig) *Result {
	r := &Result{ID: "abl-batch", Title: "Batch size sweep"}
	f := metrics.NewFigure("abl-batch", "CAM read throughput vs batch size (12 SSDs, 4KB)", "blocks/batch", "GB/s")
	s := f.NewSeries("CAM")
	sizes, blocks := []int{16, 64, 256, 1024, 4096}, 1<<14
	if cfg.Quick {
		sizes, blocks = []int{16, 256, 4096}, 1<<13
	}
	for _, bs := range sizes {
		ccfg := cam.DefaultConfig(12)
		ccfg.MaxBatch = bs
		l := load{nvme.OpRead, workload.NewUniform(3, 1<<20), bs, blocks / bs, 1}
		v, _, _ := camRun(cfg, platform.Options{SSDs: 12}, ccfg, l)
		s.Add(float64(bs), v/1e9)
	}
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes,
		"small batches cannot keep twelve SSDs' queues full; the paper's batching premise in one curve")
	return r
}

// runAblOutstanding sweeps the number of concurrently published batches.
func runAblOutstanding(cfg RunConfig) *Result {
	r := &Result{ID: "abl-outstanding", Title: "Outstanding-batch (pipeline depth) sweep"}
	f := metrics.NewFigure("abl-outstanding", "CAM read throughput vs outstanding batches (12 SSDs, 4KB, 512-block batches)",
		"outstanding", "GB/s")
	s := f.NewSeries("CAM")
	depths, batches := []int{1, 2, 4, 8}, 64
	if cfg.Quick {
		depths, batches = []int{1, 2, 8}, 32
	}
	for _, d := range depths {
		// 512-block batches are small enough that pipeline depth matters.
		ccfg := cam.DefaultConfig(12)
		ccfg.MaxBatch = 512
		ccfg.MaxOutstanding = d + 1
		v, _, _ := camRun(cfg, platform.Options{SSDs: 12}, ccfg, load{nvme.OpRead, workload.NewUniform(7, 1<<20), 512, batches, d})
		s.Add(float64(d), v/1e9)
	}
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes,
		"with small batches, deeper pipelines recover the idle gap between publish and completion")
	return r
}
