package gds

import (
	"bytes"
	"fmt"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e    *sim.Engine
	g    *gpu.GPU
	hm   *hostmem.Memory
	devs []*ssd.Device
	d    *Driver
}

func newRig(nDevs int) *rig { return newFaultedRig(nDevs, nil) }

// newFaultedRig builds the rig with plan's injectors on its devices, when
// plan is not nil; the driver arms its recovery from them.
func newFaultedRig(nDevs int, plan *fault.Plan) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		c := ssd.DefaultConfig()
		c.Seed = uint64(i + 1)
		devs = append(devs, ssd.New(e, fmt.Sprintf("nvme%d", i), c, fab, space))
		if plan != nil {
			devs[i].SetFaultInjector(plan.Injector(i))
		}
	}
	d := New(e, hm, space, devs)
	for _, dev := range devs {
		dev.Start()
	}
	d.Start()
	return &rig{e: e, g: g, hm: hm, devs: devs, d: d}
}

// signalSink fires a signal when a transfer completes and keeps its
// failed-command count.
type signalSink struct {
	done *sim.Signal
	errs int
}

func (s *signalSink) BatchDone(errs int) {
	s.errs = errs
	s.done.Fire()
}

// read and write block p on one transfer and report its failed commands.
func (r *rig) read(p *sim.Proc, off, n int64, dst mem.Addr) int {
	s := &signalSink{done: r.e.NewSignal("read")}
	r.d.ReadAsync(off, n, dst, s)
	p.Wait(s.done)
	return s.errs
}

func (r *rig) write(p *sim.Proc, off, n int64, src mem.Addr) int {
	s := &signalSink{done: r.e.NewSignal("write")}
	r.d.WriteAsync(off, n, src, s)
	p.Wait(s.done)
	return s.errs
}

func TestReadWriteRoundTrip(t *testing.T) {
	r := newRig(3)
	n := int64(640 << 10) // several stripes
	src := r.g.Alloc("src", n)
	dst := r.g.Alloc("dst", n)
	rng := sim.NewRNG(4)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	r.e.Go("app", func(p *sim.Proc) {
		if r.write(p, 0, n, src.Addr)+r.read(p, 0, n, dst.Addr) != 0 {
			t.Error("a fault-free transfer reported failed commands")
		}
	})
	r.e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("GDS round trip mismatch")
	}
}

// TestFailedCommandsReachTheSink: with every command failing, a read of five
// stripes hands its sink all five of its commands as failed (the round trip
// test pins zero on a fault-free machine).
func TestFailedCommandsReachTheSink(t *testing.T) {
	plan := fault.NewPlan(1)
	plan.ErrRate = 1
	r := newFaultedRig(3, plan)
	n := 5 * calib.RAID0Stripe()
	dst := r.g.Alloc("dst", n)
	errs := -1
	r.e.Go("app", func(p *sim.Proc) { errs = r.read(p, 0, n, dst.Addr) })
	r.e.Run()
	if errs != 5 {
		t.Fatalf("sink got %d failed commands, want 5 (one per stripe)", errs)
	}
}

func TestThroughputCeilingNearPaper(t *testing.T) {
	// GDS should deliver ~0.8 GB/s regardless of SSD count (paper §IV-E).
	r := newRig(12)
	total := int64(64 << 20)
	dst := r.g.Alloc("dst", 16<<20)
	var dur sim.Time
	r.e.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		var off int64
		for off < total {
			r.read(p, off, 16<<20, dst.Addr)
			off += 16 << 20
		}
		dur = p.Now() - t0
	})
	r.e.Run()
	gbps := float64(total) / dur.Seconds() / 1e9
	if gbps < 0.6 || gbps > 1.1 {
		t.Fatalf("GDS throughput = %.2f GB/s, want ~0.8 (paper)", gbps)
	}
}

func TestDirectPathNoDRAMTraffic(t *testing.T) {
	r := newRig(2)
	dst := r.g.Alloc("dst", 1<<20)
	r.e.Go("app", func(p *sim.Proc) {
		r.read(p, 0, 1<<20, dst.Addr)
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 0 {
		t.Fatalf("GDS read moved %d bytes through DRAM, want 0 (direct path)", got)
	}
}

func TestUnalignedPanics(t *testing.T) {
	r := newRig(1)
	panicked := false
	r.e.Go("app", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		r.read(p, 100, 512, 0)
	})
	r.e.Run()
	if !panicked {
		t.Fatal("unaligned GDS read did not panic")
	}
}
