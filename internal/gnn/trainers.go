package gnn

import (
	"fmt"

	"camsim/internal/bam"
	"camsim/internal/calib"
	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

// Breakdown is the per-stage time accounting behind the paper's Figure 1.
type Breakdown struct {
	Sample  sim.Time
	Extract sim.Time // feature I/O (the "extracting" stage)
	Train   sim.Time
	Total   sim.Time // wall time of the measured iterations
	Iters   int
	Nodes   uint64 // unique nodes extracted
}

// Fractions reports each stage's share of the summed stage time.
func (b Breakdown) Fractions() (sample, extract, train float64) {
	sum := float64(b.Sample + b.Extract + b.Train)
	if sum == 0 {
		return 0, 0, 0
	}
	return float64(b.Sample) / sum, float64(b.Extract) / sum, float64(b.Train) / sum
}

// PrepopulateFeatures writes every node's reference feature row into the
// SSD array (direct store access, no simulated time — dataset loading is
// not part of any measured figure). Only feasible for scaled datasets. It is
// the writer half of the trainers' Verify oracle; only tests turn that on.
func PrepopulateFeatures(env *platform.Env, d Dataset) {
	fb := d.FeatBytes()
	row := make([]byte, fb)
	pay := mem.WrapBytes(row)
	defer pay.Release()
	n := uint64(len(env.Devs))
	for v := uint64(0); v < d.NumNodes; v++ {
		d.FeatureRow(v, row)
		dev := v % n
		lba := (v / n) * uint64(fb/512)
		if err := env.Devs[dev].Store().WriteLBAP(lba, uint32(fb/512), pay, 0); err != nil {
			panic(err)
		}
	}
}

// VerifyFeatures checks that buf holds the reference rows for nodes (in
// order); it reports the first mismatching index or -1.
func VerifyFeatures(d Dataset, nodes []uint64, buf []byte) int {
	fb := int(d.FeatBytes())
	want := make([]byte, fb)
	for i, v := range nodes {
		d.FeatureRow(v, want)
		got := buf[i*fb : (i+1)*fb]
		for j := range want {
			if got[j] != want[j] {
				return i
			}
		}
	}
	return -1
}

// GIDSTrainer is the BaM-based baseline: per iteration, sampling, feature
// gathering (which pins the GPU), and training run back to back.
type GIDSTrainer struct {
	Env     *platform.Env
	Data    Dataset
	Model   Model
	Cfg     TrainConfig
	Sys     *bam.System
	arr     *bam.Array
	featBuf *gpu.Buffer
	// Verify makes each iteration check extracted rows against the
	// reference pattern (requires PrepopulateFeatures).
	Verify bool
}

// NewGIDSTrainer wires a trainer on the environment.
func NewGIDSTrainer(env *platform.Env, d Dataset, m Model, cfg TrainConfig, sys *bam.System) *GIDSTrainer {
	t := &GIDSTrainer{Env: env, Data: d, Model: m, Cfg: cfg, Sys: sys}
	t.arr = sys.NewArray(d.FeatBytes())
	t.featBuf = env.GPU.Alloc("gids.features", maxBatchBytes(d, cfg))
	return t
}

// Release frees the trainer's feature buffer. The worst-case sizing makes
// these the largest transient allocations in the GNN figures, so returning
// them to the device-memory pool keeps a multi-configuration sweep from
// churning a fresh multi-megabyte arena per measured point.
func (t *GIDSTrainer) Release() { t.featBuf.Free() }

// maxBatchNodes is the worst-case unique node count of one sampled
// minibatch: the seeds and every neighbour each hop can draw.
func maxBatchNodes(cfg TrainConfig) int {
	worst := cfg.Batch
	mult := 1
	for _, f := range cfg.Fanouts {
		mult *= f
		worst += cfg.Batch * mult
	}
	return worst
}

// maxBatchBytes sizes the feature buffer for the worst-case unique count.
func maxBatchBytes(d Dataset, cfg TrainConfig) int64 {
	return int64(maxBatchNodes(cfg)) * d.FeatBytes()
}

// CAMConfig is the manager configuration a CAMTrainer on ssds SSDs needs:
// one block per feature row, and batches as large as the worst-case sampled
// minibatch, so any Batch and Fanouts fit one prefetch.
func CAMConfig(ssds int, d Dataset, cfg TrainConfig) cam.Config {
	c := cam.DefaultConfig(ssds)
	c.BlockBytes = d.FeatBytes()
	c.MaxBatch = maxBatchNodes(cfg)
	return c
}

// RunIterations executes iters training iterations and returns the stage
// breakdown.
func (t *GIDSTrainer) RunIterations(p *sim.Proc, iters int) Breakdown {
	var b Breakdown
	b.Iters = iters
	start := p.Now()
	for it := 0; it < iters; it++ {
		// 1. Sampling kernel (graph structure in CPU memory).
		nodes := SampleBatch(t.Data, t.Cfg, it)
		b.Nodes += uint64(len(nodes))
		sT := calib.GNNSampleCost() * sim.Time(len(nodes))
		t0 := p.Now()
		t.Env.GPU.RunKernel(p, gpu.KernelSpec{
			Name: "sample", Threads: t.Env.GPU.TotalThreads(), FullOccupancyTime: sT,
		})
		b.Sample += p.Now() - t0

		// 2. Feature extraction through the synchronous BaM interface —
		// pins the SMs, so nothing else can use the GPU meanwhile.
		t0 = p.Now()
		t.arr.Gather(p, nodes, t.featBuf, 0)
		b.Extract += p.Now() - t0
		if t.Verify {
			if bad := VerifyFeatures(t.Data, nodes, t.featBuf.Bytes()); bad >= 0 {
				panic(fmt.Sprintf("gids: feature mismatch at sampled index %d", bad))
			}
		}

		// 3. Training kernel.
		cT := t.Cfg.ComputeTimePerNode(t.Model, t.Data) * sim.Time(len(nodes))
		t0 = p.Now()
		t.Env.GPU.RunKernel(p, gpu.KernelSpec{
			Name: "train", Threads: t.Env.GPU.TotalThreads(), FullOccupancyTime: cT,
		})
		b.Train += p.Now() - t0
	}
	b.Total = p.Now() - start
	return b
}

// CAMTrainer is the paper's pipelined trainer (Figs 6 and 7): while the GPU
// trains on batch k, CAM prefetches batch k+1's features into the other
// half of a double buffer.
type CAMTrainer struct {
	Env   *platform.Env
	Data  Dataset
	Model Model
	Cfg   TrainConfig
	M     *cam.Manager

	readBuf    *gpu.Buffer
	computeBuf *gpu.Buffer
	Verify     bool
}

// NewCAMTrainer wires the trainer; the manager's BlockBytes must equal the
// dataset's feature row size.
func NewCAMTrainer(env *platform.Env, d Dataset, m Model, cfg TrainConfig, mgr *cam.Manager) *CAMTrainer {
	t := &CAMTrainer{Env: env, Data: d, Model: m, Cfg: cfg, M: mgr}
	n := maxBatchBytes(d, cfg)
	t.readBuf = mgr.Alloc("cam.read", n)
	t.computeBuf = mgr.Alloc("cam.compute", n)
	return t
}

// Release frees the trainer's double buffer (see GIDSTrainer.Release).
func (t *CAMTrainer) Release() {
	t.readBuf.Free()
	t.computeBuf.Free()
}

// RunIterations executes iters pipelined iterations and returns the
// breakdown. One priming prefetch plus one warm-up iteration precede the
// measured window, so the numbers are steady-state per-iteration costs —
// a real epoch runs thousands of iterations, so its single pipeline fill
// is negligible, but it would dominate a 3-iteration measurement. Sample
// and Train report GPU kernel time; Extract reports the residual stall —
// the time the pipeline actually waited on I/O, which is what overlap
// eliminates.
func (t *CAMTrainer) RunIterations(p *sim.Proc, iters int) Breakdown {
	const warmup = 1
	var b Breakdown
	b.Iters = iters

	// Prime: sample and prefetch batch 0.
	nodes := SampleBatch(t.Data, t.Cfg, 0)
	sT := calib.GNNSampleCost() * sim.Time(len(nodes))
	t.Env.GPU.RunKernel(p, gpu.KernelSpec{Name: "sample", Threads: t.Env.GPU.TotalThreads(), FullOccupancyTime: sT})
	t.M.Prefetch(p, nodes, t.readBuf, 0)
	current := nodes

	iters += warmup
	start := p.Now()
	for it := 0; it < iters; it++ {
		if it == warmup {
			// Steady state reached: open the measured window.
			b.Sample, b.Extract, b.Train, b.Nodes = 0, 0, 0, 0
			start = p.Now()
		}
		// Wait for the in-flight prefetch (batch `it`) to land.
		t0 := p.Now()
		t.M.PrefetchSynchronize(p)
		b.Extract += p.Now() - t0

		// Swap buffers: the freshly filled read buffer becomes this
		// iteration's compute buffer (Fig 7 lines 5-6).
		t.readBuf, t.computeBuf = t.computeBuf, t.readBuf
		b.Nodes += uint64(len(current))
		if t.Verify {
			if bad := VerifyFeatures(t.Data, current, t.computeBuf.Bytes()); bad >= 0 {
				panic(fmt.Sprintf("cam: feature mismatch at sampled index %d", bad))
			}
		}

		// Sample batch it+1 and launch its prefetch before training, so
		// the I/O overlaps the training kernel. The final iteration has
		// no successor, so it samples and prefetches nothing.
		var next []uint64
		if it+1 < iters {
			next = SampleBatch(t.Data, t.Cfg, it+1)
			sT := calib.GNNSampleCost() * sim.Time(len(next))
			t0 = p.Now()
			t.Env.GPU.RunKernel(p, gpu.KernelSpec{Name: "sample", Threads: t.Env.GPU.TotalThreads(), FullOccupancyTime: sT})
			b.Sample += p.Now() - t0
			t.M.Prefetch(p, next, t.readBuf, 0)
		}

		// Train on the current batch while the prefetch proceeds.
		cT := t.Cfg.ComputeTimePerNode(t.Model, t.Data) * sim.Time(len(current))
		t0 = p.Now()
		t.Env.GPU.RunKernel(p, gpu.KernelSpec{Name: "train", Threads: t.Env.GPU.TotalThreads(), FullOccupancyTime: cT})
		b.Train += p.Now() - t0

		current = next
	}
	b.Total = p.Now() - start
	return b
}
