package harness

import (
	"fmt"
	"strings"

	"camsim/internal/calib"
	"camsim/internal/cpustat"
	"camsim/internal/mem"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/workload"
)

func init() {
	register("fig2", "4 KB random read/write throughput of kernel I/O stacks (1 SSD)", runFig2)
	register("fig3", "Read/write I/O time breakdown across kernel layers", runFig3)
	register("fig4", "A100 SM utilization BaM needs to saturate N SSDs", runFig4)
	register("fig8", "I/O throughput of CAM vs BaM, SPDK, POSIX", runFig8)
	register("fig11", "Synchronous CAM API vs asynchronous APIs", runFig11)
	register("fig12", "I/O throughput with one CPU thread controlling multiple SSDs", runFig12)
	register("fig13", "CPU cycles and instructions per request", runFig13)
	register("fig14", "CPU memory bandwidth vs SSD bandwidth (CAM vs SPDK)", runFig14)
	register("fig15", "Throughput under restricted CPU memory channels", runFig15)
	register("fig16", "Throughput vs access granularity, non-contiguous destination", runFig16)
}

func runFig2(cfg RunConfig) *Result {
	r := &Result{ID: "fig2", Title: "Kernel-stack 4 KiB random throughput, one SSD"}
	t := metrics.NewTable("fig2", "Fig 2: 4KB random IOPS (1 SSD)", "stack", "read KIOPS", "write KIOPS")
	for _, k := range oskernel.Kinds() {
		rd, _ := kernelThroughput(cfg, k, 1, nvme.OpRead, 4096)
		wr, _ := kernelThroughput(cfg, k, 1, nvme.OpWrite, 4096)
		t.AddRow(k.String(), rd/4096/1000, wr/4096/1000)
	}
	t.AddRow("device max (dashed)", calib.SSDReadIOPS()/1000, calib.SSDWriteIOPS()/1000)
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"every software stack sits below the device line; POSIX < libaio < io_uring-int < io_uring-poll")
	return r
}

func runFig3(cfg RunConfig) *Result {
	r := &Result{ID: "fig3", Title: "Per-layer I/O time breakdown"}
	layers := []string{"user", "filesystem", "iomap", "blockio", "completion"}
	quick := cfg
	quick.Quick = true
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		t := metrics.NewTable("fig3-"+strings.ToLower(op.String()), fmt.Sprintf("Fig 3 (%s): layer fractions", op),
			"stack", "user", "filesystem", "iomap", "blockio", "completion", "fs+iomap")
		for _, k := range oskernel.Kinds() {
			_, st := kernelThroughput(quick, k, 1, op, 4096)
			bd := st.LayerBreakdown()
			row := []any{k.String()}
			for _, l := range layers {
				row = append(row, bd[l])
			}
			row = append(row, bd["filesystem"]+bd["iomap"])
			t.AddRow(row...)
		}
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes, "the file system + I/O mapping layers exceed 34% of per-request time (paper §II-A)")
	return r
}

func runFig4(cfg RunConfig) *Result {
	r := &Result{ID: "fig4", Title: "BaM SM utilization to saturate N SSDs"}
	env := cfg.newEnv(platform.Options{SSDs: 1})
	sys := newBaM(env)
	f := metrics.NewFigure("fig4", "Fig 4: SM utilization for I/O", "SSDs", "SM %")
	s := f.NewSeries("BaM")
	for n := 1; n <= 12; n++ {
		s.Add(float64(n), 100*sys.SMUtilizationFor(n))
	}
	// Drive the configuration through one saturating random-read gather so
	// the figure's occupancy model sits on an actual simulated workload and
	// the experiment's virtual time flows through the harness sim-clock
	// accounting (Result.SimElapsed) like every other figure's.
	bamRun(cfg, env, sys.NewArray(4096), 4096, load{nvme.OpRead, workload.NewUniform(4, 1<<22), 1024, 4, 1})
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes, "five or more SSDs consume every SM, so compute and I/O serialize (Issue 3)")
	return r
}

func runFig8(cfg RunConfig) *Result {
	r := &Result{ID: "fig8", Title: "I/O throughput: CAM vs BaM vs SPDK vs POSIX"}
	ssdsSweep := []int{1, 2, 4, 8, 12}
	granSweep := []int64{512, 1024, 2048, 4096, 8192, 16384, 65536}
	if cfg.Quick {
		ssdsSweep = []int{1, 4, 12}
		granSweep = []int64{512, 4096, 65536}
	}

	point := func(sys string, ssds int, op nvme.Opcode, gran int64) float64 {
		switch sys {
		case "CAM":
			v, _, _ := camThroughput(cfg, ssds, op, gran, 0, 2, platform.Options{})
			return v
		case "BaM":
			return bamThroughput(cfg, ssds, op, gran)
		case "SPDK":
			v, _, _ := spdkContigThroughput(cfg, ssds, op, gran, platform.Options{})
			return v
		case "POSIX":
			v, _ := kernelThroughput(cfg, oskernel.POSIX, ssds, op, gran)
			return v
		}
		panic("unknown system")
	}
	systems := []string{"CAM", "BaM", "SPDK", "POSIX"}

	sub := func(id, title string, op nvme.Opcode, byGran bool) *metrics.Figure {
		xlabel := "SSDs"
		if byGran {
			xlabel = "granularity (B)"
		}
		f := metrics.NewFigure("fig8"+id, title, xlabel, "GB/s")
		for _, sys := range systems {
			s := f.NewSeries(sys)
			if byGran {
				for _, g := range granSweep {
					s.Add(float64(g), point(sys, 12, op, g)/1e9)
				}
			} else {
				for _, n := range ssdsSweep {
					s.Add(float64(n), point(sys, n, op, 4096)/1e9)
				}
			}
		}
		return f
	}
	r.Figs = append(r.Figs,
		sub("a", "Fig 8a: 4KB random read vs #SSDs", nvme.OpRead, false),
		sub("b", "Fig 8b: random read vs granularity (12 SSDs)", nvme.OpRead, true),
		sub("c", "Fig 8c: 4KB random write vs #SSDs", nvme.OpWrite, false),
		sub("d", "Fig 8d: random write vs granularity (12 SSDs)", nvme.OpWrite, true),
	)
	r.Notes = append(r.Notes,
		"CAM ≈ SPDK ≈ BaM, all above POSIX; 12 SSDs at 4KB reach ~20GB/s (PCIe-limited)")
	return r
}

func runFig11(cfg RunConfig) *Result {
	r := &Result{ID: "fig11", Title: "CAM-Sync vs CAM-Async vs SPDK async"}
	sweep := []int{1, 2, 4, 8, 12}
	if cfg.Quick {
		sweep = []int{2, 8, 12}
	}
	f := metrics.NewFigure("fig11", "Fig 11a: random read throughput", "SSDs", "GB/s")
	sSync := f.NewSeries("CAM-Sync")
	sAsync := f.NewSeries("CAM-Async")
	sSPDK := f.NewSeries("SPDK-async")
	for _, n := range sweep {
		v1, _, _ := camThroughput(cfg, n, nvme.OpRead, 4096, 0, 1, platform.Options{})
		v2, _, _ := camThroughput(cfg, n, nvme.OpRead, 4096, 0, 4, platform.Options{})
		v3, _ := spdkRawThroughput(cfg, n, nvme.OpRead, 4096)
		sSync.Add(float64(n), v1/1e9)
		sAsync.Add(float64(n), v2/1e9)
		sSPDK.Add(float64(n), v3/1e9)
	}
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes,
		"the synchronous-feeling CAM API costs nothing: all three lines coincide (Goal 3)")
	return r
}

func runFig12(cfg RunConfig) *Result {
	r := &Result{ID: "fig12", Title: "One CPU thread controlling multiple SSDs (12 SSDs)"}
	t := metrics.NewTable("fig12", "Fig 12: throughput vs SSDs per thread",
		"SSDs/thread", "threads", "read GB/s", "write GB/s", "read % of 1/thread")
	type pt struct{ perThread, threads int }
	pts := []pt{{1, 12}, {2, 6}, {3, 4}, {4, 3}}
	var base float64
	for _, q := range pts {
		rd, _, _ := camThroughput(cfg, 12, nvme.OpRead, 4096, q.threads, 2, platform.Options{})
		wr, _, _ := camThroughput(cfg, 12, nvme.OpWrite, 4096, q.threads, 2, platform.Options{})
		if q.perThread == 1 {
			base = rd
		}
		t.AddRow(q.perThread, q.threads, rd/1e9, wr/1e9, 100*rd/base)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"two SSDs per thread lose nothing; four SSDs per thread deliver ~75% (paper §IV-H)")
	return r
}

func runFig13(cfg RunConfig) *Result {
	r := &Result{ID: "fig13", Title: "CPU cost per request: CAM vs SPDK vs libaio"}
	t := metrics.NewTable("fig13", "Fig 13: per-request CPU cost",
		"system", "op", "instructions", "cycles")
	type row struct {
		sys string
		op  nvme.Opcode
		c   cpustat.Counters
	}
	var rows []row
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		_, _, mgr := camThroughput(cfg, 4, op, 4096, 4, 2, platform.Options{})
		rows = append(rows, row{"CAM", op, mgr.BackendStats()})
		_, d := spdkRawThroughput(cfg, 4, op, 4096)
		rows = append(rows, row{"SPDK", op, d.Stats()})
		_, st := kernelThroughput(cfg, oskernel.Libaio, 4, op, 4096)
		rows = append(rows, row{"libaio", op, st.Stat})
	}
	for _, x := range rows {
		t.AddRow(x.sys, x.op.String(), x.c.PerRequestInstructions(), x.c.PerRequestCycles())
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"CAM/SPDK: fewer instructions and far fewer cycles than libaio; writes cost more than reads")
	return r
}

func runFig14(cfg RunConfig) *Result {
	r := &Result{ID: "fig14", Title: "CPU memory bandwidth vs achieved SSD bandwidth"}
	// 64 KiB commands saturate the PCIe link in both directions — the
	// regime where the paper's "21 GB/s needs 42 GB/s of DRAM" bites.
	const gran = 64 << 10
	t := metrics.NewTable("fig14", "Fig 14: DRAM traffic during full-speed I/O (12 SSDs, 64KB)",
		"system", "op", "SSD GB/s", "DRAM GB/s", "DRAM/SSD ratio")
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		v, env, _ := camThroughput(cfg, 12, op, gran, 0, 2, platform.Options{})
		dram := env.HM.AchievedBandwidth()
		t.AddRow("CAM", op.String(), v/1e9, dram/1e9, dram/v)
		v2, env2, _ := spdkContigThroughput(cfg, 12, op, gran, platform.Options{})
		dram2 := env2.HM.AchievedBandwidth()
		t.AddRow("SPDK", op.String(), v2/1e9, dram2/1e9, dram2/v2)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"SPDK's staging crosses DRAM twice per SSD byte; CAM's direct data plane touches DRAM not at all")
	return r
}

func runFig15(cfg RunConfig) *Result {
	r := &Result{ID: "fig15", Title: "Throughput with 2 vs 16 memory channels"}
	const gran = 64 << 10 // PCIe-saturating commands, as in Fig 14
	t := metrics.NewTable("fig15", "Fig 15: GB/s under memory-channel limits (12 SSDs, 64KB)",
		"system", "op", "16 channels", "2 channels", "loss %")
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		for _, sys := range []string{"CAM", "SPDK"} {
			var full, lim float64
			if sys == "CAM" {
				full, _, _ = camThroughput(cfg, 12, op, gran, 0, 2, platform.Options{MemoryChannels: 16})
				lim, _, _ = camThroughput(cfg, 12, op, gran, 0, 2, platform.Options{MemoryChannels: 2})
			} else {
				full, _, _ = spdkContigThroughput(cfg, 12, op, gran, platform.Options{MemoryChannels: 16})
				lim, _, _ = spdkContigThroughput(cfg, 12, op, gran, platform.Options{MemoryChannels: 2})
			}
			t.AddRow(sys, op.String(), full/1e9, lim/1e9, 100*(1-lim/full))
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"SPDK degrades when DRAM channels cannot carry 2x the SSD rate; CAM is untouched (paper §IV-J)")
	return r
}

func runFig16(cfg RunConfig) *Result {
	r := &Result{ID: "fig16", Title: "Granularity sweep with non-contiguous destination"}
	grans := []int64{4096, 65536, 1 << 20, 16 << 20, 128 << 20}
	if cfg.Quick {
		grans = []int64{4096, 1 << 20, 128 << 20}
	}
	f := metrics.NewFigure("fig16", "Fig 16: read throughput, scattered destination (12 SSDs)",
		"granularity (B)", "GB/s")
	sCAM := f.NewSeries("CAM")
	sSPDK := f.NewSeries("SPDK")
	for _, g := range grans {
		v, _, _ := camThroughput(cfg, 12, nvme.OpRead, g, 0, 2, platform.Options{})
		sCAM.Add(float64(g), v/1e9)
		v2 := spdkScatteredThroughput(cfg, 12, g)
		sSPDK.Add(float64(g), v2/1e9)
	}
	r.Figs = append(r.Figs, f)
	r.Notes = append(r.Notes,
		"with a scattered destination SPDK pays one cudaMemcpyAsync per granule: 4KB collapses to ~1.3GB/s (93.5% below CAM)")
	return r
}

// spdkScatteredThroughput is the Fig 16 flow: granule-sized SSD reads fill
// a staging buffer (striped across all SSDs and split at the device MDTS),
// but because the GPU destination is not contiguous, every granule needs
// its own cudaMemcpyAsync. Granules are double-buffered so the copy of one
// overlaps the fill of the next — exactly the overlap SPDK can offer, and
// still not enough at small granularity.
func spdkScatteredThroughput(cfg RunConfig, ssds int, gran int64) float64 {
	// Concurrency: enough granules in flight to hide SSD latency at small
	// sizes without gigabytes of staging at large ones.
	workers := int64(16)
	if w := (64 << 20) / gran; w < workers {
		workers = w
	}
	if workers < 2 {
		workers = 2
	}
	granules := reqBudget(4096, cfg.Quick) * 4096 / gran
	if granules < 4*workers {
		granules = 4 * workers
	}
	if granules > 4096 {
		granules = 4096
	}
	v, _ := spdkScatteredRun(cfg, ssds, gran, workers, granules)
	return v
}

// spdkScatteredRun is spdkScatteredThroughput's closed loops: workers
// staging buffers taking turns over granules granules. It reports the
// bytes/s their successful requests moved.
func spdkScatteredRun(cfg RunConfig, ssds int, gran, workers, granules int64) (float64, *platform.Env) {
	env := cfg.newEnv(platform.Options{SSDs: ssds})
	d := newSPDK(env)
	chunk := min(gran, spdk.MaxTransfer())
	rng := sim.NewRNG(15)
	wins := make([]*reqWindow, workers)
	for w := int64(0); w < workers; w++ {
		w := w
		seed := rng.Uint64()
		staging := env.HM.Alloc(fmt.Sprintf("sc%d", w), gran)
		win := newReqWindow("spdkScatteredRun", int((gran+chunk-1)/chunk))
		wins[w] = win
		env.E.Go("bench", func(p *sim.Proc) {
			lr := sim.NewRNG(seed)
			var copyDone sim.Time
			for gidx := w; gidx < granules; gidx += workers {
				// The staging buffer must not be refilled while its
				// previous memcpy is still draining.
				p.SleepUntil(copyDone)
				for off := int64(0); off < gran; off += chunk {
					win.submit(d, spdk.Request{
						Op: nvme.OpRead, Dev: int((off/chunk + gidx) % int64(ssds)),
						SLBA: uint64(lr.Int63n(1<<20)) * uint64(chunk/nvme.LBASize),
						NLB:  uint32(chunk / nvme.LBASize),
						Addr: staging.Addr + mem.Addr(off),
					})
				}
				win.drain(p)
				// The raw driver charged the DMA-write crossing per
				// command; this is the copy's read leg. Every granule is
				// its own cudaMemcpyAsync - the scattered-destination
				// penalty.
				dramDone := env.HM.ReserveTraffic(gran)
				copyDone = env.CE.ReserveCopy(gran)
				if dramDone > copyDone {
					copyDone = dramDone
				}
			}
		})
	}
	end := runEnv(cfg, env)
	var moved int64
	for _, win := range wins {
		moved += win.moved
	}
	return float64(moved) / end.Seconds(), env
}
