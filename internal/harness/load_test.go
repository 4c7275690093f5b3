package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"camsim/internal/cam"
	"camsim/internal/fault"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/workload"
)

// TestLoadMovesEveryBlock: the loop every throughput point shares reaches
// the devices with exactly batches × perBatch commands on CAM (at one and at
// three batches in flight, every one complete when the loop returns) and on
// BaM, in both directions; CAM dispatches one batch per batch; and each SPDK
// closed loop issues exactly its requests, never more than its window on a
// device, copying every staging region or granule out once.
func TestLoadMovesEveryBlock(t *testing.T) {
	const ssds, perBatch, batches = 2, 64, 5
	cfg := RunConfig{Quick: true}
	devCmds := func(env *platform.Env, op nvme.Opcode) uint64 {
		var n uint64
		for _, d := range env.Devs {
			if st := d.Stats(); op == nvme.OpRead {
				n += st.ReadCmds
			} else {
				n += st.WriteCmds
			}
		}
		return n
	}
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		l := load{op, workload.NewUniform(1, 1<<16), perBatch, batches, 1}
		for _, depth := range []int{1, 3} {
			t.Run(fmt.Sprintf("CAM/%s/depth%d", op, depth), func(t *testing.T) {
				env := platform.New(platform.Options{SSDs: ssds})
				defer env.E.Shutdown()
				ccfg := cam.DefaultConfig(ssds)
				ccfg.MaxBatch = perBatch
				ccfg.MaxOutstanding = depth + 1
				mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
				buf := mgr.Alloc("b", perBatch*4096*int64(depth))
				l.depth = depth
				var done uint64 // device commands completed when the loop returns
				env.E.Go("t", func(p *sim.Proc) {
					l.onCAM(p, mgr, buf)
					done = devCmds(env, op)
				})
				runEnv(cfg, env)
				if done != perBatch*batches {
					t.Errorf("devices had completed %d %s commands when the loop returned, want %d", done, op, perBatch*batches)
				}
				if got := mgr.Stats().Batches; got != batches {
					t.Errorf("CAM dispatched %d batches, want %d", got, batches)
				}
			})
		}
		t.Run(fmt.Sprintf("BaM/%s", op), func(t *testing.T) {
			env := platform.New(platform.Options{SSDs: ssds})
			defer env.E.Shutdown()
			bamRun(cfg, env, newBaM(env).NewArray(4096), 4096, l)
			if got := devCmds(env, op); got != perBatch*batches {
				t.Errorf("devices saw %d %s commands, want %d", got, op, perBatch*batches)
			}
		})
	}
	t.Run("SPDK window", func(t *testing.T) {
		// Each closed loop reaches the device with exactly the requests it
		// issues, never more than its window in flight.
		check := func(t *testing.T, env *platform.Env, op nvme.Opcode, reqs uint64, depth int) {
			t.Helper()
			if got := devCmds(env, op); got != reqs {
				t.Errorf("device saw %d %s commands, want %d", got, op, reqs)
			}
			if st := env.Devs[0].Stats(); st.MaxInFlight < 2 || st.MaxInFlight > depth {
				t.Errorf("device had up to %d commands in flight, want 2..%d", st.MaxInFlight, depth)
			}
		}
		t.Run("onSPDK", func(t *testing.T) {
			const reqs, depth = 100, 8
			env := platform.New(platform.Options{SSDs: 1})
			defer env.E.Shutdown()
			d := newSPDK(env)
			buf := env.HM.Alloc("b", 4096)
			l := load{op: nvme.OpWrite, gen: workload.NewUniform(1, 1<<10), perBatch: 1, batches: reqs, depth: depth}
			env.E.Go("w", func(p *sim.Proc) { l.onSPDK(p, d, 1, 4096, buf.Addr) })
			runEnv(cfg, env)
			check(t, env, nvme.OpWrite, reqs, depth)
		})
		t.Run("contig", func(t *testing.T) {
			// 128 KiB commands: 32 to a staging region, so the 64-deep
			// window spans two regions and the third slot's barrier bites.
			const regions = 6
			_, env, _ := spdkContigRun(cfg, 1, nvme.OpRead, 128<<10, regions, platform.Options{})
			defer env.E.Shutdown()
			check(t, env, nvme.OpRead, regions*stagingRegion/(128<<10), 64)
			if got := env.CE.Calls(); got != regions {
				t.Errorf("%d staging regions copied out, want each of %d once", got, regions)
			}
		})
		t.Run("scattered", func(t *testing.T) {
			// 256 KiB granules are two commands each: four workers keep at
			// most eight in flight.
			const workers, granules = 4, 16
			_, env := spdkScatteredRun(cfg, 1, 256<<10, workers, granules)
			defer env.E.Shutdown()
			check(t, env, nvme.OpRead, 2*granules, 2*workers)
			if got := env.CE.Calls(); got != granules {
				t.Errorf("%d granule copies, want %d", got, granules)
			}
		})
	})
}

// TestSPDKWindowsAllocsIndependentOfLength: the three SPDK closed loops
// reuse one window of request records, so a run four times as long, at the
// same depth and machine construction included, allocates at most one
// object per 16 extra requests more (the count used to grow by at least one
// per request: a request record, plus a closure in the contiguous loop).
func TestSPDKWindowsAllocsIndependentOfLength(t *testing.T) {
	cfg := RunConfig{Quick: true}
	loops := []struct {
		name string
		reqs int64 // requests at length 1
		run  func(n int64)
	}{
		{"onSPDK", 1024, func(n int64) {
			env := platform.New(platform.Options{SSDs: 1})
			d := newSPDK(env)
			buf := env.HM.Alloc("b", 4096)
			l := load{op: nvme.OpRead, gen: workload.NewUniform(1, 1<<20), perBatch: 1, batches: int(1024 * n), depth: 64}
			env.E.Go("w", func(p *sim.Proc) { l.onSPDK(p, d, 1, 4096, buf.Addr) })
			runEnv(cfg, env)
			env.E.Shutdown()
		}},
		{"contig", 3 * stagingRegion / 4096, func(n int64) {
			_, env, _ := spdkContigRun(cfg, 1, nvme.OpRead, 4096, 3*n, platform.Options{})
			env.E.Shutdown()
		}},
		{"scattered", 1024, func(n int64) {
			_, env := spdkScatteredRun(cfg, 1, 4096, 16, 1024*n)
			env.E.Shutdown()
		}},
	}
	mallocs := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	for _, lp := range loops {
		t.Run(lp.name, func(t *testing.T) {
			lp.run(1) // warm the process-global pools
			short := mallocs(func() { lp.run(1) })
			long := mallocs(func() { lp.run(4) })
			extra := 3 * lp.reqs
			t.Logf("%d objects at %d requests, %d at %d", short, lp.reqs, long, 4*lp.reqs)
			if long > short+uint64(extra/16) {
				t.Errorf("%d objects at %d requests, %d at %d: more than one per 16 extra requests",
					short, lp.reqs, long, 4*lp.reqs)
			}
		})
	}
}

// TestReqWindowRefusesRecordInFlight: a window record whose request has not
// completed is never handed out again; the panic names the loop.
func TestReqWindowRefusesRecordInFlight(t *testing.T) {
	w := newReqWindow("loopX", 1)
	w.n = 1 // record 0 taken, its Done never fired
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "loopX") {
			t.Fatalf("reusing a record in flight: panic %q, want one naming loopX", msg)
		}
	}()
	w.submit(nil, spdk.Request{})
}

// TestKernelThroughputCountsOnlySuccess: the kernel stacks' fio-style load
// reports the bytes its successful requests moved, so under a plan that
// fails every command it reports 0 where the same load fault-free reports
// its rate.
func TestKernelThroughputCountsOnlySuccess(t *testing.T) {
	plan := fault.NewPlan(1)
	plan.ErrRate = 1
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		clean, _ := kernelThroughput(RunConfig{Quick: true}, oskernel.POSIX, 1, op, 4096)
		failed, _ := kernelThroughput(RunConfig{Quick: true, Faults: plan}, oskernel.POSIX, 1, op, 4096)
		if clean <= 0 || failed != 0 {
			t.Errorf("%s: %.0f B/s fault-free, %.0f B/s with every command failing; want positive and 0", op, clean, failed)
		}
	}
}

// TestThroughputCountsOnlySuccess: the closed loops of CAM, BaM and the
// three SPDK flows report the bytes their successful requests moved, so
// under a plan that fails every command on 2 SSDs each reports 0 where the
// same load fault-free reports its rate.
func TestThroughputCountsOnlySuccess(t *testing.T) {
	plan := fault.NewPlan(1)
	plan.ErrRate = 1
	runs := []struct {
		name string
		run  func(cfg RunConfig) float64
	}{
		{"camThroughput", func(cfg RunConfig) float64 {
			v, _, _ := camThroughput(cfg, 2, nvme.OpRead, 4096, 0, 2, platform.Options{})
			return v
		}},
		{"spdkRawThroughput", func(cfg RunConfig) float64 {
			v, _ := spdkRawThroughput(cfg, 2, nvme.OpRead, 4096)
			return v
		}},
		{"spdkContigThroughput", func(cfg RunConfig) float64 {
			v, _, _ := spdkContigThroughput(cfg, 2, nvme.OpRead, 4096, platform.Options{})
			return v
		}},
		{"bamThroughput", func(cfg RunConfig) float64 {
			return bamThroughput(cfg, 2, nvme.OpRead, 4096)
		}},
		{"spdkScatteredRun", func(cfg RunConfig) float64 {
			v, _ := spdkScatteredRun(cfg, 2, 4096, 4, 64)
			return v
		}},
	}
	for _, r := range runs {
		clean := r.run(RunConfig{Quick: true})
		failed := r.run(RunConfig{Quick: true, Faults: plan})
		if clean <= 0 || failed != 0 {
			t.Errorf("%s: %.0f B/s fault-free, %.0f B/s with every command failing; want positive and 0", r.name, clean, failed)
		}
	}
}
