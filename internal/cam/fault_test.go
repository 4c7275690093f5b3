package cam

import (
	"fmt"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/ssd"
)

// faultRig mirrors newRig but installs one fault plan's injectors on every
// device before the controllers start.
func faultRig(nDevs int, cfg Config, plan *fault.Plan) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		c := ssd.DefaultConfig()
		c.Seed = uint64(i + 1)
		d := ssd.New(e, fmt.Sprintf("nvme%d", i), c, fab, space)
		d.SetFaultInjector(plan.Injector(i))
		devs = append(devs, d)
	}
	m := New(e, cfg, g, hm, space, fab, devs)
	for _, d := range devs {
		d.Start()
	}
	return &rig{e: e, space: space, fab: fab, hm: hm, g: g, devs: devs, m: m}
}

// TestInjectedErrorsSurfaceOnBatch: with every command failing, the faulted
// devices arm the backend's retries, each request is tried 1 + MaxRetries
// times, and every request that runs out of retries lands on the batch
// handle — a GPU batch observes partial failure instead of hanging or
// silently succeeding.
func TestInjectedErrorsSurfaceOnBatch(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.ErrRate = 1
	r := faultRig(2, DefaultConfig(2), plan)
	dst := r.m.Alloc("dst", 16*4096)
	var b *Batch
	r.e.Go("kernel", func(p *sim.Proc) {
		b = r.m.Prefetch(p, seqBlocks(16), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	if b.OK() {
		t.Fatal("batch reported OK with every command failing")
	}
	if b.Errors() != 16 {
		t.Fatalf("batch errors = %d, want 16", b.Errors())
	}
	if st := r.m.Stats(); st.FailedRequests != 16 {
		t.Fatalf("FailedRequests = %d, want 16", st.FailedRequests)
	}
	inj := r.devs[0].Injector().Stats().Errors + r.devs[1].Injector().Stats().Errors
	if want := uint64(16 * (1 + calib.SPDKMaxRetries())); inj != want {
		t.Fatalf("injectors recorded %d errors, want %d", inj, want)
	}
}

// TestWaitPanicsOnLostBlocks: Wait, the batch as an xfer handle, refuses to
// hand back a buffer with holes, while Synchronize on the same batch returns
// and leaves the losses to Errors and OK.
func TestWaitPanicsOnLostBlocks(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.ErrRate = 1
	r := faultRig(2, DefaultConfig(2), plan)
	dst := r.m.Alloc("dst", 16*4096)
	var b *Batch
	var got any
	r.e.Go("kernel", func(p *sim.Proc) {
		b = r.m.Prefetch(p, seqBlocks(16), dst, 0)
		r.m.Synchronize(p, b)
		defer func() { got = recover() }()
		b.Wait(p)
	})
	r.e.Run()
	if b.OK() || b.Errors() != 16 {
		t.Fatalf("batch OK=%v errors=%d after Synchronize, want false and 16", b.OK(), b.Errors())
	}
	if want := "xfer(cam): 16 of 16 blocks failed; the driver's retries did not recover them"; got != want {
		t.Fatalf("Wait panicked with %v, want %q", got, want)
	}
}

// TestRetriesRecoverInjectedErrors: with the management thread's retry path
// armed by the faulted devices, a 20% media-error rate is absorbed — the batch completes clean and
// the recovery counters show the work it took. Deterministic for this seed.
func TestRetriesRecoverInjectedErrors(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.ErrRate = 0.2
	r := faultRig(2, DefaultConfig(2), plan)
	dst := r.m.Alloc("dst", 256*4096)
	var b *Batch
	r.e.Go("kernel", func(p *sim.Proc) {
		b = r.m.Prefetch(p, seqBlocks(256), dst, 0)
		r.m.PrefetchSynchronize(p)
	})
	r.e.Run()
	rec := r.m.Driver().Recovery()
	if rec.Retries == 0 || rec.Recovered == 0 {
		t.Fatalf("no recovery activity at 20%% error rate: %+v", rec)
	}
	if !b.OK() {
		t.Fatalf("batch lost %d blocks despite retries (recovery %+v)", b.Errors(), rec)
	}
	if st := r.m.Stats(); st.FailedRequests != 0 {
		t.Fatalf("FailedRequests = %d after full recovery", st.FailedRequests)
	}
}

// TestDeviceDropOutDegradesBatch: one device of the stripe set dying must
// cost exactly its share of the batch — and later batches fail fast rather
// than burning a timeout per command.
func TestDeviceDropOutDegradesBatch(t *testing.T) {
	plan := fault.NewPlan(7)
	plan.FailDev, plan.FailAt = 0, 0 // device 0 dead from the start
	cfg := DefaultConfig(2)
	cfg.Backend.ArmRecovery() // an explicit deadline: New leaves the policy below as set
	cfg.Backend.MaxRetries = 1
	cfg.Backend.FailThreshold = 2
	r := faultRig(2, cfg, plan)
	dst := r.m.Alloc("dst", 32*4096)
	var b1, b2 *Batch
	var secondStart, secondEnd sim.Time
	r.e.Go("kernel", func(p *sim.Proc) {
		b1 = r.m.Prefetch(p, seqBlocks(32), dst, 0)
		r.m.PrefetchSynchronize(p)
		secondStart = p.Now()
		b2 = r.m.Prefetch(p, seqBlocks(32), dst, 0)
		r.m.PrefetchSynchronize(p)
		secondEnd = p.Now()
	})
	r.e.Run()
	// Even stripe: half of each batch lived on the dead device.
	if b1.OK() || b1.Errors() != 16 {
		t.Fatalf("first batch: OK=%v errors=%d, want 16 lost blocks", b1.OK(), b1.Errors())
	}
	if b2.OK() || b2.Errors() != 16 {
		t.Fatalf("second batch: OK=%v errors=%d, want 16 lost blocks", b2.OK(), b2.Errors())
	}
	rec := r.m.Driver().Recovery()
	if rec.DeviceFailures != 1 {
		t.Fatalf("DeviceFailures = %d, want 1", rec.DeviceFailures)
	}
	// The second batch's dead-device half fast-fails: well under one
	// command timeout for the whole batch.
	if d := secondEnd - secondStart; d >= cfg.Backend.CmdTimeout {
		t.Fatalf("post-mortem batch took %v, at least a full timeout", d)
	}
	if rec.FastFails == 0 {
		t.Fatalf("no fast-fails recorded: %+v", rec)
	}
}

// TestFaultedRunReplaysDeterministically: the same seed must reproduce the
// whole faulted run — batch outcomes, recovery counters, injector stats and
// the virtual clock — bit for bit.
func TestFaultedRunReplaysDeterministically(t *testing.T) {
	run := func() (sim.Time, Stats, spdk.RecoveryStats, fault.Stats) {
		plan := fault.NewPlan(23)
		plan.ErrRate, plan.DropRate, plan.SlowRate = 5e-3, 1e-3, 5e-3
		r := faultRig(4, DefaultConfig(4), plan)
		dst := r.m.Alloc("dst", 512*4096)
		rng := sim.NewRNG(9)
		r.e.Go("kernel", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				blocks := make([]uint64, 512)
				for j := range blocks {
					blocks[j] = uint64(rng.Int63n(1 << 18))
				}
				r.m.Prefetch(p, blocks, dst, 0)
				r.m.PrefetchSynchronize(p)
			}
		})
		end := r.e.Run()
		var inj fault.Stats
		for _, d := range r.devs {
			inj.Add(d.Injector().Stats())
		}
		return end, r.m.Stats(), r.m.Driver().Recovery(), inj
	}
	e1, s1, r1, i1 := run()
	e2, s2, r2, i2 := run()
	if e1 != e2 || s1 != s2 || r1 != r2 || i1 != i2 {
		t.Fatalf("replay diverged:\n%v %+v %+v %+v\n%v %+v %+v %+v",
			e1, s1, r1, i1, e2, s2, r2, i2)
	}
	if i1.Errors == 0 && i1.Drops == 0 && i1.Slows == 0 {
		t.Fatal("plan injected nothing — test proves nothing")
	}
}
