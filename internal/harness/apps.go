package harness

import (
	"errors"
	"fmt"
	"strings"

	"camsim/internal/calib"
	"camsim/internal/cam"
	"camsim/internal/gemmx"
	"camsim/internal/gnn"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

func init() {
	register("fig1", "GNN training time breakdown of GIDS (BaM-based)", runFig1)
	register("fig9", "GNN training epoch time: CAM vs GIDS", runFig9)
	register("fig10a", "Mergesort execution time: CAM vs SPDK vs POSIX", runFig10a)
	register("fig10bc", "GEMM throughput and execution time: CAM vs BaM vs GDS vs SPDK", runFig10bc)
}

// ErrUnknownBackend is the error SortBackend and GEMMBackend wrap when they
// do not know the scheme name; any other error they return is the workload
// config's own.
var ErrUnknownBackend = errors.New("unknown backend")

// SortBackend builds scheme sys's backend for the sort cfg describes, after
// checking cfg against the backend's block. CAM and BaM move 64 KiB blocks;
// SPDK moves a quarter chunk with 8 helpers, which keeps several devices
// busy per streamed chunk while amortizing the memcpy; POSIX moves whole
// chunks with 4 helpers. Names are matched without regard to case.
func SortBackend(env *platform.Env, sys string, cfg sortx.Config) (xfer.Backend, error) {
	var block int64
	var build func() xfer.Backend
	switch strings.ToLower(sys) {
	case "cam":
		block, build = 65536, func() xfer.Backend { return xfer.NewCAM(env, block, nil) }
	case "spdk":
		block, build = cfg.ChunkBytes/4, func() xfer.Backend { return xfer.NewSPDK(env, block, 8) }
	case "posix":
		block, build = cfg.ChunkBytes, func() xfer.Backend { return xfer.NewPOSIX(env, block, 4) }
	case "bam":
		block, build = 65536, func() xfer.Backend { return xfer.NewBaM(env, newBaM(env), block) }
	default:
		return nil, fmt.Errorf("%w %q (want cam, spdk, posix or bam)", ErrUnknownBackend, sys)
	}
	if err := cfg.Validate(block); err != nil {
		return nil, err
	}
	return build(), nil
}

// GEMMBackend builds scheme sys's backend for the multiply cfg describes,
// after checking cfg against the backend's block: the tile, capped at 64 KiB
// on the schemes that move tiles in granules, and the whole tile on SPDK,
// with 4 helpers. Names are matched without regard to case.
func GEMMBackend(env *platform.Env, sys string, cfg gemmx.Config) (xfer.Backend, error) {
	block := min(65536, cfg.TileBytes())
	var build func() xfer.Backend
	switch strings.ToLower(sys) {
	case "cam":
		build = func() xfer.Backend { return xfer.NewCAM(env, block, nil) }
	case "bam":
		build = func() xfer.Backend { return xfer.NewBaM(env, newBaM(env), block) }
	case "gds":
		build = func() xfer.Backend { return xfer.NewGDS(env, block) }
	case "spdk":
		block, build = cfg.TileBytes(), func() xfer.Backend { return xfer.NewSPDK(env, block, 4) }
	default:
		return nil, fmt.Errorf("%w %q (want cam, bam, gds or spdk)", ErrUnknownBackend, sys)
	}
	if err := cfg.Validate(block); err != nil {
		return nil, err
	}
	return build(), nil
}

// gnnScale returns the simulated graph scale and iteration count.
func gnnScale(quick bool) (nodes uint64, batch, iters int) {
	if quick {
		return 400_000, 96, 2
	}
	return 4_000_000, 512, 3
}

func gnnDatasets() []gnn.Dataset {
	return []gnn.Dataset{gnn.Paper100M(), gnn.IGBFull()}
}

func runFig1(cfg RunConfig) *Result {
	r := &Result{ID: "fig1", Title: "GIDS stage breakdown on Paper100M"}
	nodes, batch, iters := gnnScale(cfg.Quick)
	t := metrics.NewTable("fig1", "Fig 1: GIDS time breakdown (Paper100M, 12 SSDs)",
		"model", "sample %", "extract %", "train %")
	d := gnn.Paper100M().Scaled(nodes)
	tcfg := gnn.DefaultTrainConfig()
	tcfg.Batch = batch
	for _, m := range gnn.Models() {
		env := cfg.newEnv(platform.Options{SSDs: 12})
		tr := gnn.NewGIDSTrainer(env, d, m, tcfg, newBaM(env))
		var b gnn.Breakdown
		env.E.Go("t", func(p *sim.Proc) { b = tr.RunIterations(p, iters) })
		runEnv(cfg, env)
		tr.Release()
		s, e, tn := b.Fractions()
		t.AddRow(m.Name, 100*s, 100*e, 100*tn)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "feature extraction (SSD reads) takes 40-65% of GIDS training time")
	return r
}

func runFig9(cfg RunConfig) *Result {
	r := &Result{ID: "fig9", Title: "GNN epoch time: CAM vs GIDS"}
	nodes, batch, iters := gnnScale(cfg.Quick)
	t := metrics.NewTable("fig9", "Fig 9: per-iteration time (ms) and speedup",
		"dataset", "model", "GIDS ms/iter", "CAM ms/iter", "speedup")
	tcfg := gnn.DefaultTrainConfig()
	tcfg.Batch = batch
	for _, ds := range gnnDatasets() {
		d := ds.Scaled(nodes)
		for _, m := range gnn.Models() {
			gEnv := cfg.newEnv(platform.Options{SSDs: 12})
			gt := gnn.NewGIDSTrainer(gEnv, d, m, tcfg, newBaM(gEnv))
			var gb gnn.Breakdown
			gEnv.E.Go("t", func(p *sim.Proc) { gb = gt.RunIterations(p, iters) })
			runEnv(cfg, gEnv)
			gt.Release()

			cEnv := cfg.newEnv(platform.Options{SSDs: 12})
			mgr := cam.New(cEnv.E, gnn.CAMConfig(12, d, tcfg), cEnv.GPU, cEnv.HM, cEnv.Space, cEnv.Fab, cEnv.Devs)
			ct := gnn.NewCAMTrainer(cEnv, d, m, tcfg, mgr)
			var cb gnn.Breakdown
			cEnv.E.Go("t", func(p *sim.Proc) { cb = ct.RunIterations(p, iters) })
			runEnv(cfg, cEnv)
			ct.Release()

			gms := gb.Total.Seconds() * 1000 / float64(gb.Iters)
			cms := cb.Total.Seconds() * 1000 / float64(cb.Iters)
			t.AddRow(ds.Name, m.Name, gms, cms, gms/cms)
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"CAM overlaps feature I/O with sampling+training; speedups grow on IGB-full (I/O-heavier), up to ~1.8x")
	return r
}

func runFig10a(cfg RunConfig) *Result {
	r := &Result{ID: "fig10a", Title: "Out-of-core mergesort time"}
	sizes := []int64{1 << 21, 1 << 22, 1 << 23} // keys
	if cfg.Quick {
		sizes = []int64{1 << 19, 1 << 20}
	}
	f := metrics.NewFigure("fig10a", "Fig 10a: mergesort execution time", "keys", "ms")
	series := map[string]*metrics.Series{
		"CAM":   f.NewSeries("CAM"),
		"SPDK":  f.NewSeries("SPDK"),
		"POSIX": f.NewSeries("POSIX"),
	}
	for _, n := range sizes {
		// 4·n bytes of keys in four runs → two real merge passes.
		scfg := sortx.Config{
			NumInts:    n,
			RunBytes:   n, // bytes: (n*4)/4 runs
			ChunkBytes: 256 << 10,
			SortRate:   calib.SortRate(),
			MergeRate:  calib.MergeRate(),
		}
		for _, sys := range []string{"CAM", "SPDK", "POSIX"} {
			env := cfg.newEnv(platform.Options{SSDs: 12})
			b, err := SortBackend(env, sys, scfg)
			if err != nil {
				panic(err)
			}
			s := sortx.New(env, b, scfg)
			var st sortx.Stats
			env.E.Go("sort", func(p *sim.Proc) {
				s.Fill(p, 3)
				st = s.Sort(p)
				if err := s.Verify(p); err != nil {
					panic(err)
				}
			})
			runEnv(cfg, env)
			series[sys].Add(float64(n), st.Elapsed.Seconds()*1000)
		}
	}
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes,
		"CAM ≈ SPDK (both overlap at large granularity); both beat POSIX by ~1.5x (paper §IV-D)")
	return r
}

func runFig10bc(cfg RunConfig) *Result {
	r := &Result{ID: "fig10bc", Title: "Out-of-core GEMM"}
	gcfg := gemmx.Config{N: 2048, K: 2048, M: 2048, Tile: 512, ComputeRate: calib.GEMMRate()}
	if cfg.Quick {
		gcfg = gemmx.Config{N: 1024, K: 1024, M: 1024, Tile: 256, ComputeRate: calib.GEMMRate()}
	}
	t := metrics.NewTable("fig10bc", "Fig 10b,c: GEMM read throughput and execution time",
		"system", "GB/s", "time ms")
	for _, sys := range []string{"CAM", "BaM", "GDS", "SPDK"} {
		env := cfg.newEnv(platform.Options{SSDs: 12})
		b, err := GEMMBackend(env, sys, gcfg)
		if err != nil {
			panic(err)
		}
		m := gemmx.New(env, b, gcfg)
		var st gemmx.Stats
		env.E.Go("gemm", func(p *sim.Proc) {
			m.FillInputs(p, 5)
			st = m.Run(p)
		})
		runEnv(cfg, env)
		t.AddRow(sys, st.Throughput/1e9, st.Elapsed.Seconds()*1000)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"GDS is capped near 0.8GB/s by its fs/NVFS path; CAM beats BaM by overlapping I/O with the multiply (paper: up to 1.84x)")
	return r
}
