package bam

import (
	"fmt"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

// faultRig mirrors newRig but installs one fault plan's injectors on every
// device (none for a nil plan) before the system is built.
func faultRig(nDevs int, cfg Config, plan *fault.Plan) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		c := ssd.DefaultConfig()
		c.Seed = uint64(i + 1)
		d := ssd.New(e, fmt.Sprintf("nvme%d", i), c, fab, space)
		d.SetFaultInjector(plan.Injector(i))
		devs = append(devs, d)
	}
	sys := New(e, cfg, g, devs)
	for _, d := range devs {
		d.Start()
	}
	return &rig{e: e, g: g, devs: devs, sys: sys}
}

// TestNewArmsTimeoutFromFaultedDevices pins the arming rule: New sets
// CmdTimeout to calib.RecoveryDeadline exactly when some device carries a
// fault injector and the config leaves it at 0. A caller's deadline stays
// as set, and a fault-free machine stays disarmed.
func TestNewArmsTimeoutFromFaultedDevices(t *testing.T) {
	plan := fault.NewPlan(1)
	plan.ErrRate = 1e-4
	explicit := DefaultConfig()
	explicit.CmdTimeout = sim.Millisecond
	for _, c := range []struct {
		name string
		cfg  Config
		plan *fault.Plan
		want sim.Time
	}{
		{"fault-free", DefaultConfig(), nil, 0},
		{"faulted", DefaultConfig(), plan, calib.RecoveryDeadline()},
		{"explicit deadline", explicit, plan, sim.Millisecond},
		{"explicit deadline, fault-free", explicit, nil, sim.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := faultRig(2, c.cfg, c.plan).sys.cfg.CmdTimeout; got != c.want {
				t.Fatalf("CmdTimeout %v, want %v", got, c.want)
			}
		})
	}
}

// TestInjectedErrorsCountFailedBlocks: BaM has no retry path, so every
// injected media error must surface as a failed block on the Gather return
// value — the kernel sees partial failure, not a hang.
func TestInjectedErrorsCountFailedBlocks(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.ErrRate = 1
	r := faultRig(2, DefaultConfig(), plan)
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 16*4096)
	blocks := make([]uint64, 16)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	var errs int
	r.e.Go("kernel", func(p *sim.Proc) {
		errs = arr.Gather(p, blocks, dst, 0)
	})
	r.e.Run()
	if errs != 16 {
		t.Fatalf("Gather reported %d failed blocks, want 16", errs)
	}
	if st := r.sys.Stats(); st.FailedBlocks != 16 || st.Timeouts != 0 {
		t.Fatalf("stats %+v: want 16 failed blocks, 0 timeouts", st)
	}
}

// TestDroppedCommandsTimeOutOnGPU: a device that swallows commands must not
// wedge the polling warps — each unanswered command expires at CmdTimeout
// and counts its blocks as failed.
func TestDroppedCommandsTimeOutOnGPU(t *testing.T) {
	plan := fault.NewPlan(2)
	plan.DropRate = 1
	cfg := DefaultConfig()
	cfg.CmdTimeout = sim.Millisecond
	r := faultRig(2, cfg, plan)
	arr := r.sys.NewArray(4096)
	dst := r.g.Alloc("dst", 8*4096)
	blocks := make([]uint64, 8)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	var errs int
	r.e.Go("kernel", func(p *sim.Proc) {
		errs = arr.Gather(p, blocks, dst, 0)
	})
	end := r.e.Run()
	if errs != 8 {
		t.Fatalf("Gather reported %d failed blocks, want 8", errs)
	}
	st := r.sys.Stats()
	if st.Timeouts != 8 || st.FailedBlocks != 8 {
		t.Fatalf("stats %+v: want 8 timeouts, 8 failed blocks", st)
	}
	if end < cfg.CmdTimeout || end > cfg.CmdTimeout+sim.Millisecond {
		t.Fatalf("engine ended at %v, expected just past the %v deadline", end, cfg.CmdTimeout)
	}
}

// TestDeviceDropOutDegradesGather: with one device dead, its share of the
// batch times out while the healthy device's blocks still arrive intact.
func TestDeviceDropOutDegradesGather(t *testing.T) {
	plan := fault.NewPlan(4)
	plan.FailDev, plan.FailAt = 0, 0
	cfg := DefaultConfig()
	cfg.CmdTimeout = sim.Millisecond
	r := faultRig(2, cfg, plan)
	arr := r.sys.NewArray(4096)
	n := 16
	src := r.g.Alloc("src", int64(n)*4096)
	dst := r.g.Alloc("dst", int64(n)*4096)
	rng := sim.NewRNG(13)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	blocks := make([]uint64, n)
	for i := range blocks {
		blocks[i] = uint64(i) // even ids → dev 0 (dead), odd → dev 1
	}
	var werrs, rerrs int
	r.e.Go("kernel", func(p *sim.Proc) {
		werrs = arr.Scatter(p, blocks, src, 0)
		rerrs = arr.Gather(p, blocks, dst, 0)
	})
	r.e.Run()
	if werrs != n/2 || rerrs != n/2 {
		t.Fatalf("scatter/gather failed %d/%d blocks, want %d each", werrs, rerrs, n/2)
	}
	// Odd blocks live on the healthy device: their bytes round-tripped.
	for i := 1; i < n; i += 2 {
		a := src.Bytes()[i*4096 : (i+1)*4096]
		b := dst.Bytes()[i*4096 : (i+1)*4096]
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("healthy-device block %d corrupted at byte %d", i, j)
			}
		}
	}
	if dd := r.devs[0].Injector().Stats().DeadDrops; dd == 0 {
		t.Fatal("dead device swallowed nothing")
	}
}

// TestFaultedGatherReplaysDeterministically: same seed, same schedule, same
// counters and virtual end time.
func TestFaultedGatherReplaysDeterministically(t *testing.T) {
	run := func() (sim.Time, Stats, fault.Stats) {
		plan := fault.NewPlan(29)
		plan.ErrRate, plan.DropRate = 0.05, 0.02
		cfg := DefaultConfig()
		cfg.CmdTimeout = sim.Millisecond
		r := faultRig(3, cfg, plan)
		arr := r.sys.NewArray(4096)
		dst := r.g.Alloc("dst", 256*4096)
		blocks := make([]uint64, 256)
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		r.e.Go("kernel", func(p *sim.Proc) {
			arr.Gather(p, blocks, dst, 0)
		})
		end := r.e.Run()
		var inj fault.Stats
		for _, d := range r.devs {
			inj.Add(d.Injector().Stats())
		}
		return end, r.sys.Stats(), inj
	}
	e1, s1, i1 := run()
	e2, s2, i2 := run()
	if e1 != e2 || s1 != s2 || i1 != i2 {
		t.Fatalf("replay diverged:\n%v %+v %+v\n%v %+v %+v", e1, s1, i1, e2, s2, i2)
	}
	if i1.Errors == 0 || i1.Drops == 0 {
		t.Fatalf("plan injected too little to exercise the paths: %+v", i1)
	}
}
