package bam

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"camsim/internal/gpu"
	"camsim/internal/gpucache"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e    *sim.Engine
	g    *gpu.GPU
	devs []*ssd.Device
	sys  *System
}

func newRig(nDevs int, cfg Config) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		c := ssd.DefaultConfig()
		c.Seed = uint64(i + 1)
		devs = append(devs, ssd.New(e, fmt.Sprintf("nvme%d", i), c, fab, space))
	}
	sys := New(e, cfg, g, devs)
	for _, d := range devs {
		d.Start()
	}
	return &rig{e: e, g: g, devs: devs, sys: sys}
}

func TestSMUtilizationStaircase(t *testing.T) {
	// The paper's Fig 4: ~all SMs at >= 5 SSDs.
	r := newRig(1, DefaultConfig())
	cases := map[int]float64{1: 0.19, 2: 0.39, 4: 0.78, 5: 0.99, 12: 0.999}
	for n, min := range cases {
		got := r.sys.SMUtilizationFor(n)
		if got < min || got > 1.0 {
			t.Errorf("SMUtilizationFor(%d) = %.3f, want >= %.3f and <= 1", n, got, min)
		}
	}
	if r.sys.SMUtilizationFor(5) != 1.0 && r.sys.SMUtilizationFor(5) < 0.99 {
		t.Errorf("5 SSDs should consume ~all SMs")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	r := newRig(3, DefaultConfig())
	arr := r.sys.NewArray(4096)
	n := 24
	src := r.g.Alloc("src", int64(n)*4096)
	dst := r.g.Alloc("dst", int64(n)*4096)
	rng := sim.NewRNG(11)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i * 7) // spread across devices
	}
	r.e.Go("kernel", func(p *sim.Proc) {
		arr.Scatter(p, blocks, src, 0)
		arr.Gather(p, blocks, dst, 0)
	})
	r.e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("BaM scatter/gather round trip mismatch")
	}
}

func TestGatherPinsThreadsDuringIO(t *testing.T) {
	r := newRig(2, DefaultConfig())
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 64*4096)
	var duringUtil float64
	r.e.Go("kernel", func(p *sim.Proc) {
		blocks := make([]uint64, 64)
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		arr.Gather(p, blocks, dst, 0)
	})
	r.e.Go("probe", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // mid-gather
		duringUtil = r.g.SMUtilization()
	})
	r.e.Run()
	want := r.sys.SMUtilizationFor(2)
	if math.Abs(duringUtil-want) > 0.02 {
		t.Fatalf("mid-gather SM utilization = %.3f, want ~%.3f", duringUtil, want)
	}
	if r.g.FreeThreads() != r.g.TotalThreads() {
		t.Fatal("threads leaked after gather")
	}
}

func TestComputeSerializesBehindIO(t *testing.T) {
	// With 12 SSDs BaM pins every SM, so a compute kernel launched during
	// a gather cannot start until the gather ends (paper Issue 3).
	r := newRig(12, DefaultConfig())
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 2048*4096)
	var gatherEnd, computeStart sim.Time
	r.e.Go("io", func(p *sim.Proc) {
		blocks := make([]uint64, 2048)
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		arr.Gather(p, blocks, dst, 0)
		gatherEnd = p.Now()
	})
	r.e.Go("compute", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond) // launch during the gather
		r.g.RunKernel(p, gpu.KernelSpec{Name: "train", Threads: 4096, FullOccupancyTime: 10 * sim.Microsecond})
		computeStart = p.Now() - 10*sim.Microsecond
	})
	r.e.Run()
	if computeStart < gatherEnd {
		t.Fatalf("compute started at %v while gather pinned the GPU until %v", computeStart, gatherEnd)
	}
}

func TestGatherThroughputNearDeviceLimit(t *testing.T) {
	r := newRig(2, DefaultConfig())
	arr := r.sys.NewArray(4096)
	const n = 4096
	dst := r.g.Alloc("dst", n*4096)
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	var dur sim.Time
	r.e.Go("kernel", func(p *sim.Proc) {
		t0 := p.Now()
		arr.Gather(p, blocks, dst, 0)
		dur = p.Now() - t0
	})
	r.e.Run()
	gbps := float64(n*4096) / dur.Seconds()
	want := 2 * ssd.DefaultConfig().ReadIOPS * 4096 // two devices
	if math.Abs(gbps-want)/want > 0.12 {
		t.Fatalf("gather throughput %.2e B/s, want ~%.2e", gbps, want)
	}
}

func TestBadBlockSizePanics(t *testing.T) {
	r := newRig(1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("bad block size accepted")
		}
	}()
	r.sys.NewArray(1000)
}

func TestLocateStriping(t *testing.T) {
	r := newRig(4, DefaultConfig())
	arr := r.sys.NewArray(4096)
	for _, tc := range []struct {
		block   uint64
		wantDev int
		wantLBA uint64
	}{{0, 0, 0}, {1, 1, 0}, {4, 0, 8}, {5, 1, 8}, {11, 3, 16}} {
		dev, lba := arr.locate(tc.block)
		if dev != tc.wantDev || lba != tc.wantLBA {
			t.Errorf("locate(%d) = (%d,%d), want (%d,%d)", tc.block, dev, lba, tc.wantDev, tc.wantLBA)
		}
	}
}

func TestGatherWithCacheServesHits(t *testing.T) {
	r := newRig(2, DefaultConfig())
	arr := r.sys.NewArray(4096)
	c := gpucache.New(r.g, "c", gpucache.Config{Sets: 16, Ways: 4, LineBytes: 4096})
	arr.AttachCache(c)
	n := 16
	src := r.g.Alloc("src", int64(n)*4096)
	dst := r.g.Alloc("dst", int64(n)*4096)
	rng := sim.NewRNG(13)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	r.e.Go("kernel", func(p *sim.Proc) {
		arr.Scatter(p, blocks, src, 0)
		arr.Gather(p, blocks, dst, 0) // all misses, fills cache
		for i := range dst.Bytes() {
			dst.Bytes()[i] = 0
		}
		arr.Gather(p, blocks, dst, 0) // all hits, served from GPU memory
	})
	r.e.Run()
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("cached gather returned wrong data")
	}
	st := c.Stats()
	if st.Hits != uint64(n) || st.Misses != uint64(n) {
		t.Fatalf("cache stats = %+v, want %d hits and %d misses", st, n, n)
	}
	// The second gather must not have touched the SSDs.
	reads := r.devs[0].Stats().ReadCmds + r.devs[1].Stats().ReadCmds
	if reads != uint64(n) {
		t.Fatalf("device reads = %d, want %d (hits must bypass SSDs)", reads, n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterInvalidatesCache(t *testing.T) {
	r := newRig(1, DefaultConfig())
	arr := r.sys.NewArray(4096)
	c := gpucache.New(r.g, "c", gpucache.Config{Sets: 4, Ways: 2, LineBytes: 4096})
	arr.AttachCache(c)
	buf := r.g.Alloc("buf", 4096)
	dst := r.g.Alloc("dst", 4096)
	r.e.Go("kernel", func(p *sim.Proc) {
		buf.Bytes()[0] = 1
		arr.Scatter(p, []uint64{5}, buf, 0)
		arr.Gather(p, []uint64{5}, dst, 0) // miss, caches value 1
		buf.Bytes()[0] = 2
		arr.Scatter(p, []uint64{5}, buf, 0) // must invalidate
		arr.Gather(p, []uint64{5}, dst, 0)  // must re-read from SSD
	})
	r.e.Run()
	if dst.Bytes()[0] != 2 {
		t.Fatalf("stale cache data after scatter: got %d, want 2", dst.Bytes()[0])
	}
}

func TestCacheLineSizeMismatchPanics(t *testing.T) {
	r := newRig(1, DefaultConfig())
	arr := r.sys.NewArray(4096)
	c := gpucache.New(r.g, "c", gpucache.Config{Sets: 4, Ways: 2, LineBytes: 512})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched cache accepted")
		}
	}()
	arr.AttachCache(c)
}

func TestGatherCoalescingSplitsNonContiguous(t *testing.T) {
	r := newRig(3, DefaultConfig())
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 3*4096)
	// 0 and 6 share nvme0 but skip LBA-adjacent block 3; 1 is nvme1.
	blocks := []uint64{0, 6, 1}
	r.e.Go("kernel", func(p *sim.Proc) {
		arr.Gather(p, blocks, dst, 0)
	})
	r.e.Run()
	var reads uint64
	for _, d := range r.devs {
		reads += d.Stats().ReadCmds
	}
	if reads != 3 {
		t.Fatalf("reads=%d, want 3 (one command per block)", reads)
	}
}

// TestMaxQueueDepth: 65 536 entries is a legal NVMe queue (16-bit CIDs,
// zero-based MQES), and a gather of four blocks on one completes.
func TestMaxQueueDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = nvme.MaxQueueDepth
	r := newRig(1, cfg)
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 4*4096)
	errs := -1
	r.e.Go("kernel", func(p *sim.Proc) {
		errs = arr.Gather(p, []uint64{0, 1, 2, 3}, dst, 0)
	})
	r.e.Run()
	if errs != 0 {
		t.Fatalf("Gather at depth %d: %d failed blocks (-1: never returned)", cfg.QueueDepth, errs)
	}
}
