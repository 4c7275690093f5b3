package gpu

import (
	"math"
	"testing"

	"camsim/internal/mem"
	"camsim/internal/sim"
)

func newGPU(e *sim.Engine) *GPU {
	return New(e, "gpu0", DefaultConfig(), mem.NewSpace())
}

func TestTotalThreads(t *testing.T) {
	g := newGPU(sim.New())
	if g.TotalThreads() != 108*2048 {
		t.Fatalf("TotalThreads = %d", g.TotalThreads())
	}
}

func TestAllocRegistersHBM(t *testing.T) {
	e := sim.New()
	space := mem.NewSpace()
	g := New(e, "gpu0", DefaultConfig(), space)
	b := g.Alloc("feat", 1<<20)
	got, kind, err := space.Resolve(b.Addr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if kind != mem.GPUHBM {
		t.Fatalf("kind = %v", kind)
	}
	got[5] = 0x99
	if b.Bytes()[5] != 0x99 {
		t.Fatal("resolve does not alias buffer")
	}
	b.Free()
	if _, _, err := space.Resolve(b.Addr, 1); err == nil {
		t.Fatal("freed buffer still mapped")
	}
}

func TestAllocPinnedFlag(t *testing.T) {
	g := newGPU(sim.New())
	if g.Alloc("a", 64).Pinned {
		t.Fatal("plain Alloc marked pinned")
	}
	if !g.AllocPinned("b", 64).Pinned {
		t.Fatal("AllocPinned not marked pinned")
	}
}

func TestOOMPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 20
	g := New(sim.New(), "gpu0", cfg, mem.NewSpace())
	defer func() {
		if recover() == nil {
			t.Fatal("OOM did not panic")
		}
	}()
	g.Alloc("big", 2<<20)
}

func TestPinThreadsClampsToCapacity(t *testing.T) {
	e := sim.New()
	g := newGPU(e)
	held, acquired := g.PinThreadsCallback(10_000_000, nil)
	if held != g.TotalThreads() || !acquired {
		t.Errorf("held = %d (inline %v), want %d on an idle GPU", held, acquired, g.TotalThreads())
	}
	if g.SMUtilization() != 1 {
		t.Errorf("SMUtilization = %g, want 1", g.SMUtilization())
	}
	g.UnpinThreads(held)
	if g.FreeThreads() != g.TotalThreads() {
		t.Fatal("threads leaked")
	}
}

func TestKernelFullSpeedWhenIdle(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.KernelLaunchOverhead = 0
	g := New(e, "gpu0", cfg, mem.NewSpace())
	var dur sim.Time
	e.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		g.RunKernel(p, KernelSpec{Name: "k", Threads: g.TotalThreads(), FullOccupancyTime: sim.Millisecond})
		dur = p.Now() - t0
	})
	e.Run()
	if dur != sim.Millisecond {
		t.Fatalf("idle-GPU kernel took %v, want 1ms", dur)
	}
}

func TestKernelSlowsWhenThreadsPinned(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.KernelLaunchOverhead = 0
	g := New(e, "gpu0", cfg, mem.NewSpace())
	var dur sim.Time
	e.Go("io", func(p *sim.Proc) {
		held, _ := g.PinThreadsCallback(g.TotalThreads()/2, nil)
		p.Sleep(10 * sim.Millisecond)
		g.UnpinThreads(held)
	})
	e.Go("app", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // let io pin first
		t0 := p.Now()
		g.RunKernel(p, KernelSpec{Name: "k", Threads: g.TotalThreads(), FullOccupancyTime: sim.Millisecond})
		dur = p.Now() - t0
	})
	e.Run()
	if dur < 2*sim.Millisecond-sim.Microsecond {
		t.Fatalf("kernel with half the SMs took %v, want ~2ms", dur)
	}
}

func TestKernelSerializesWhenGPUFull(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.KernelLaunchOverhead = 0
	g := New(e, "gpu0", cfg, mem.NewSpace())
	var start sim.Time
	e.Go("io", func(p *sim.Proc) {
		held, _ := g.PinThreadsCallback(g.TotalThreads(), nil)
		p.Sleep(5 * sim.Millisecond)
		g.UnpinThreads(held)
	})
	e.Go("app", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		g.RunKernel(p, KernelSpec{Name: "k", Threads: 64, FullOccupancyTime: sim.Millisecond})
		start = p.Now()
	})
	e.Run()
	if start < 5*sim.Millisecond {
		t.Fatalf("kernel finished at %v while GPU was fully pinned until 5ms", start)
	}
}

func TestKernelLaunchOverheadCharged(t *testing.T) {
	e := sim.New()
	g := newGPU(e) // default 4us overhead
	var dur sim.Time
	e.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		g.RunKernel(p, KernelSpec{Name: "k", Threads: 64, FullOccupancyTime: 0})
		dur = p.Now() - t0
	})
	e.Run()
	if dur != 4*sim.Microsecond {
		t.Fatalf("empty kernel took %v, want 4us launch overhead", dur)
	}
}

func TestComputeTime(t *testing.T) {
	g := newGPU(sim.New())
	// 312e12 FLOPs at 312 TFLOPS, 100% efficiency = 1 s.
	got := g.ComputeTime(312e12, 1.0)
	if math.Abs(float64(got-sim.Second)) > float64(sim.Millisecond) {
		t.Fatalf("ComputeTime = %v, want ~1s", got)
	}
}

func TestComputeTimeBadEfficiencyPanics(t *testing.T) {
	g := newGPU(sim.New())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for efficiency 0")
		}
	}()
	g.ComputeTime(1, 0)
}

func TestMeanSMUtilization(t *testing.T) {
	e := sim.New()
	cfg := DefaultConfig()
	cfg.KernelLaunchOverhead = 0
	g := New(e, "gpu0", cfg, mem.NewSpace())
	e.Go("io", func(p *sim.Proc) {
		held, _ := g.PinThreadsCallback(g.TotalThreads(), nil)
		p.Sleep(sim.Millisecond)
		g.UnpinThreads(held)
		p.Sleep(sim.Millisecond) // idle second half
	})
	e.Run()
	if u := g.MeanSMUtilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("MeanSMUtilization = %g, want ~0.5", u)
	}
}

func TestMultipleGPUsDisjointWindows(t *testing.T) {
	e := sim.New()
	space := mem.NewSpace()
	cfgs := make([]Config, 3)
	var gpus []*GPU
	for i := range cfgs {
		cfgs[i] = DefaultConfig()
		cfgs[i].HBMWindow = WindowForInstance(i)
		gpus = append(gpus, New(e, "gpu"+string(rune('0'+i)), cfgs[i], space))
	}
	// Buffers from every GPU coexist in one address space.
	for i, g := range gpus {
		b := g.Alloc("buf", 1<<20)
		got, kind, err := space.Resolve(b.Addr, 1<<20)
		if err != nil || kind != mem.GPUHBM {
			t.Fatalf("gpu %d: resolve failed: %v %v", i, kind, err)
		}
		got[0] = byte(i + 1)
		if b.Bytes()[0] != byte(i+1) {
			t.Fatalf("gpu %d: aliasing broken", i)
		}
	}
}

func TestWindowForInstanceStride(t *testing.T) {
	if WindowForInstance(0) != HBMWindowBase {
		t.Fatal("instance 0 must use the default window")
	}
	if WindowForInstance(1)-WindowForInstance(0) < mem.Addr(DefaultConfig().MemBytes) {
		t.Fatal("window stride smaller than HBM capacity")
	}
}
