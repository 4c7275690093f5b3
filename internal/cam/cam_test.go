package cam

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e     *sim.Engine
	space *mem.Space
	fab   *pcie.Fabric
	hm    *hostmem.Memory
	g     *gpu.GPU
	devs  []*ssd.Device
	m     *Manager
}

func newRig(nDevs int, cfg Config) *rig { return newRigIOPS(nDevs, cfg, 0) }

// newRigIOPS optionally overrides per-device read IOPS; the thread-scaling
// tests use the PCIe-capped effective per-SSD rate of the paper's platform.
func newRigIOPS(nDevs int, cfg Config, readIOPS float64) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		c := ssd.DefaultConfig()
		c.Seed = uint64(i + 1)
		if readIOPS > 0 {
			c.ReadIOPS = readIOPS
		}
		devs = append(devs, ssd.New(e, fmt.Sprintf("nvme%d", i), c, fab, space))
	}
	m := New(e, cfg, g, hm, space, fab, devs)
	for _, d := range devs {
		d.Start()
	}
	return &rig{e: e, space: space, fab: fab, hm: hm, g: g, devs: devs, m: m}
}

// effIOPS is the per-SSD effective 4 KiB read rate on the PCIe-limited
// 12-SSD platform.
const effIOPS = 427_000

func seqBlocks(n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = uint64(i)
	}
	return b
}

func TestWriteBackThenPrefetchRoundTrip(t *testing.T) {
	r := newRig(3, DefaultConfig(3))
	n := 48
	src := r.m.Alloc("src", int64(n)*4096)
	dst := r.m.Alloc("dst", int64(n)*4096)
	rng := sim.NewRNG(21)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.WriteBack(p, seqBlocks(n), src, 0)
		r.m.WriteBackSynchronize(p)
		r.m.Prefetch(p, seqBlocks(n), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("CAM write_back → prefetch round trip mismatch")
	}
}

func TestPrefetchIsAsynchronous(t *testing.T) {
	r := newRig(2, DefaultConfig(2))
	dst := r.m.Alloc("dst", 1024*4096)
	var publishTime, syncTime sim.Time
	r.e.Go("kernel", func(p *sim.Proc) {
		t0 := p.Now()
		r.m.Prefetch(p, seqBlocks(1024), dst, 0)
		publishTime = p.Now() - t0
		r.m.PrefetchSynchronize(p)
		syncTime = p.Now() - t0
	})
	r.e.Run()
	// Publishing 1024 LBAs is a few microseconds; the I/O itself takes
	// ~1 ms on two SSDs. Prefetch must return long before completion.
	if publishTime > 100*sim.Microsecond {
		t.Fatalf("Prefetch blocked for %v — not asynchronous", publishTime)
	}
	if syncTime < 10*publishTime {
		t.Fatalf("synchronize returned suspiciously fast: publish=%v sync=%v", publishTime, syncTime)
	}
}

func TestZeroSMUtilizationDuringIO(t *testing.T) {
	r := newRig(2, DefaultConfig(2))
	dst := r.m.Alloc("dst", 2048*4096)
	var during float64 = -1
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.Prefetch(p, seqBlocks(2048), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Go("probe", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond) // mid-I/O
		during = r.g.SMUtilization()
	})
	r.e.Run()
	if during != 0 {
		t.Fatalf("SM utilization during CAM I/O = %g, want 0 (Goal 1)", during)
	}
}

func TestComputeOverlapsIO(t *testing.T) {
	// A compute kernel launched while a CAM batch is in flight must run
	// at full speed — the whole point of the paper.
	r := newRig(2, DefaultConfig(2))
	dst := r.m.Alloc("dst", 2048*4096)
	var computeDur sim.Time
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.Prefetch(p, seqBlocks(2048), dst, 0)
		t0 := p.Now()
		r.g.RunKernel(p, gpu.KernelSpec{Name: "train", Threads: r.g.TotalThreads(), FullOccupancyTime: 500 * sim.Microsecond})
		computeDur = p.Now() - t0
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	overhead := computeDur - 500*sim.Microsecond
	if overhead > 10*sim.Microsecond {
		t.Fatalf("compute ran %v over its full-occupancy time during CAM I/O", overhead)
	}
}

func TestDirectDataPathNoDRAM(t *testing.T) {
	r := newRig(2, DefaultConfig(2))
	dst := r.m.Alloc("dst", 256*4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.Prefetch(p, seqBlocks(256), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 0 {
		t.Fatalf("CAM prefetch moved %d bytes through DRAM, want 0", got)
	}
}

func TestUnpinnedBufferPanics(t *testing.T) {
	r := newRig(1, DefaultConfig(1))
	plain := r.g.Alloc("plain", 4096) // not CAM_alloc'd
	panicked := false
	r.e.Go("kernel", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		r.m.Prefetch(p, seqBlocks(1), plain, 0)
	})
	r.e.Run()
	if !panicked {
		t.Fatal("prefetch into unpinned buffer did not panic")
	}
}

func TestBatchTooLargePanics(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxBatch = 16
	r := newRig(1, cfg)
	dst := r.m.Alloc("dst", 64*4096)
	panicked := false
	r.e.Go("kernel", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		r.m.Prefetch(p, seqBlocks(17), dst, 0)
	})
	r.e.Run()
	if !panicked {
		t.Fatal("oversized batch did not panic")
	}
}

func TestSynchronizeWithoutPrefetchIsNoop(t *testing.T) {
	r := newRig(1, DefaultConfig(1))
	var at sim.Time = -1
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.PrefetchSynchronize(p)
		r.m.WriteBackSynchronize(p)
		at = p.Now()
	})
	r.e.Run()
	if at != 0 {
		t.Fatalf("bare synchronize consumed time: %v", at)
	}
}

func TestMultipleOutstandingBatches(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxOutstanding = 4
	r := newRig(2, cfg)
	const nb = 10
	bufs := make([]*gpu.Buffer, nb)
	srcs := make([]*gpu.Buffer, nb)
	for i := range bufs {
		bufs[i] = r.m.Alloc(fmt.Sprintf("d%d", i), 32*4096)
		srcs[i] = r.m.Alloc(fmt.Sprintf("s%d", i), 32*4096)
		for j := range srcs[i].Bytes() {
			srcs[i].Bytes()[j] = byte(i + j)
		}
	}
	r.e.Go("kernel", func(p *sim.Proc) {
		// Write everything first.
		var ws []*Batch
		for i := 0; i < nb; i++ {
			blocks := make([]uint64, 32)
			for j := range blocks {
				blocks[j] = uint64(i*32 + j)
			}
			ws = append(ws, r.m.WriteBack(p, blocks, srcs[i], 0))
		}
		for _, b := range ws {
			r.m.Synchronize(p, b)
		}
		// Then read back through many overlapping prefetches.
		var rs []*Batch
		for i := 0; i < nb; i++ {
			blocks := make([]uint64, 32)
			for j := range blocks {
				blocks[j] = uint64(i*32 + j)
			}
			rs = append(rs, r.m.Prefetch(p, blocks, bufs[i], 0))
		}
		for _, b := range rs {
			r.m.Synchronize(p, b)
		}
	})
	r.e.Run()
	for i := range bufs {
		if !bytes.Equal(bufs[i].Bytes(), srcs[i].Bytes()) {
			t.Fatalf("batch %d data mismatch", i)
		}
	}
	if r.m.Stats().Batches != 2*nb {
		t.Fatalf("batches = %d, want %d", r.m.Stats().Batches, 2*nb)
	}
}

// drive measures read throughput with back-to-back large prefetch batches,
// on devices pinned to the platform-effective per-SSD rate.
func driveThroughput(t *testing.T, nDevs, cores int, blockBytes int64, batches int) float64 {
	t.Helper()
	cfg := DefaultConfig(nDevs)
	cfg.BlockBytes = blockBytes
	cfg.Cores = cores
	cfg.MaxBatch = 8192
	r := newRigIOPS(nDevs, cfg, effIOPS)
	perBatch := 4096
	dst := r.m.Alloc("dst", int64(perBatch)*blockBytes)
	var total int64
	r.e.Go("kernel", func(p *sim.Proc) {
		for i := 0; i < batches; i++ {
			blocks := make([]uint64, perBatch)
			for j := range blocks {
				blocks[j] = uint64((i*perBatch + j) % (1 << 20))
			}
			r.m.Prefetch(p, blocks, dst, 0)
			r.m.PrefetchSynchronize(p)
			total += int64(perBatch) * blockBytes
		}
	})
	end := r.e.Run()
	return float64(total) / end.Seconds()
}

func TestThroughputOneThreadPerSSD(t *testing.T) {
	got := driveThroughput(t, 2, 2, 4096, 3)
	want := float64(2*effIOPS) * 4096
	if math.Abs(got-want)/want > 0.12 {
		t.Fatalf("CAM 2 SSDs/2 cores = %.2e B/s, want ~%.2e", got, want)
	}
}

func TestThroughputTwoSSDsPerThreadNoLoss(t *testing.T) {
	two := driveThroughput(t, 4, 2, 4096, 3)
	four := driveThroughput(t, 4, 4, 4096, 3)
	if two < four*0.93 {
		t.Fatalf("2 SSDs/thread lost throughput: %.3e vs %.3e", two, four)
	}
}

func TestThroughputFourSSDsPerThreadDegrades(t *testing.T) {
	one := driveThroughput(t, 4, 1, 4096, 3) // 4 SSDs on one thread
	full := driveThroughput(t, 4, 4, 4096, 3)
	frac := one / full
	if frac < 0.6 || frac > 0.88 {
		t.Fatalf("4 SSDs/thread at %.0f%% of full, want ~75%% (Fig 12)", frac*100)
	}
}

func TestDynamicCoresShrinkWhenComputeBound(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.DynamicCores = true
	cfg.AdjustPeriod = 2
	r := newRig(8, cfg)
	dst := r.m.Alloc("dst", 256*4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			r.m.Prefetch(p, seqBlocks(256), dst, 0)
			// Long compute: I/O hides easily -> CAM should shed cores.
			r.g.RunKernel(p, gpu.KernelSpec{Name: "c", Threads: 1024, FullOccupancyTime: 3 * sim.Millisecond})
			r.m.PrefetchSynchronize(p)
		}
	})
	r.e.Run()
	if r.m.ActiveCores() != r.m.minCores {
		t.Fatalf("compute-bound run ended with %d cores, want the minimum %d", r.m.ActiveCores(), r.m.minCores)
	}
	if r.m.Stats().CoreAdjustDown == 0 {
		t.Fatal("no downward adjustments recorded")
	}
}

func TestDynamicCoresGrowWhenIOBound(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.DynamicCores = true
	cfg.AdjustPeriod = 2
	r := newRig(8, cfg)
	// Force the pool low first, then hammer with I/O-only batches.
	r.m.drv.SetActiveReactors(r.m.minCores)
	r.m.activeCores = r.m.minCores
	dst := r.m.Alloc("dst", 4096*4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			r.m.Prefetch(p, seqBlocks(4096), dst, 0)
			r.m.PrefetchSynchronize(p) // no compute at all: pure I/O
		}
	})
	r.e.Run()
	if r.m.ActiveCores() != r.m.maxCores {
		t.Fatalf("I/O-bound run ended with %d cores, want the maximum %d", r.m.ActiveCores(), r.m.maxCores)
	}
	if r.m.Stats().CoreAdjustUp == 0 {
		t.Fatal("no upward adjustments recorded")
	}
}

func TestCoresStayWithinBounds(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.DynamicCores = true
	cfg.AdjustPeriod = 1
	r := newRig(12, cfg)
	dst := r.m.Alloc("dst", 1024*4096)
	rng := sim.NewRNG(5)
	r.e.Go("kernel", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			r.m.Prefetch(p, seqBlocks(1024), dst, 0)
			if rng.Float64() < 0.5 {
				r.g.RunKernel(p, gpu.KernelSpec{Name: "c", Threads: 2048, FullOccupancyTime: sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))})
			}
			r.m.PrefetchSynchronize(p)
			if c := r.m.ActiveCores(); c < r.m.minCores || c > r.m.maxCores {
				t.Errorf("active cores %d outside [%d,%d]", c, r.m.minCores, r.m.maxCores)
			}
		}
	})
	r.e.Run()
}

func TestRegionEncodingHonest(t *testing.T) {
	// The LBA array and args must actually live in region bytes.
	r := newRig(2, DefaultConfig(2))
	dst := r.m.Alloc("dst", 4*4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		r.m.Prefetch(p, []uint64{42, 43, 44, 45}, dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	// region3 must hold the last sequence; region4 the completed one.
	if got := r.m.r3[0]; got != 1 {
		t.Fatalf("region3 seq byte = %d, want 1", got)
	}
	if got := r.m.r4[0]; got != 1 {
		t.Fatalf("region4 seq byte = %d, want 1", got)
	}
	// region1 slot 0 begins with block id 42.
	if got := r.m.r1[0]; got != 42 {
		t.Fatalf("region1 first LBA byte = %d, want 42", got)
	}
}

func TestLatencyRecorded(t *testing.T) {
	r := newRig(1, DefaultConfig(1))
	dst := r.m.Alloc("dst", 16*4096)
	var b *Batch
	r.e.Go("kernel", func(p *sim.Proc) {
		b = r.m.Prefetch(p, seqBlocks(16), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	if b.Latency() <= 0 {
		t.Fatalf("batch latency = %v", b.Latency())
	}
	if b.Latency() < calib.SSDReadLatency()/2 {
		t.Fatalf("latency %v implausibly below media latency", b.Latency())
	}
}

func TestStatusErrorsSurfaceInStats(t *testing.T) {
	r := newRig(1, DefaultConfig(1))
	if r.m.CapacityBlocks() == 0 {
		t.Fatal("capacity zero")
	}
	st := r.m.Stats()
	if st.Requests != 0 || st.Batches != 0 {
		t.Fatal("fresh manager has nonzero stats")
	}
	_ = nvme.StatusSuccess
}

func TestTracerCapturesOverlap(t *testing.T) {
	r := newRig(2, DefaultConfig(2))
	meter := metrics.NewOverlap(r.e)
	r.m.SetOverlap(meter)
	r.g.SetOverlap(meter)
	dst := r.m.Alloc("dst", 2048*4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.m.Prefetch(p, seqBlocks(2048), dst, 0)
			r.g.RunKernel(p, gpu.KernelSpec{Name: "train", Threads: 4096, FullOccupancyTime: 500 * sim.Microsecond})
			r.m.PrefetchSynchronize(p)
		}
	})
	r.e.Run()
	io, comp, overlap, span := meter.Report()
	if overlap <= 0 {
		t.Fatalf("no I/O-compute overlap recorded: io=%v comp=%v span=%v", io, comp, span)
	}
	// Compute time must be almost fully hidden under I/O.
	if float64(overlap) < 0.9*float64(comp) {
		t.Fatalf("overlap %v < 90%% of compute %v", overlap, comp)
	}
}
