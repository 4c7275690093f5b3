package main

import (
	"fmt"
	"time"

	"camsim/internal/bam"
	"camsim/internal/cpustat"
	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

const (
	stackWorkers     = 32 // fio-style worker procs on the kernel stacks
	stackSPDKHelpers = 8  // staged-I/O helpers, as in the kv experiment
)

// stackSeg is one baseline stack on its own 12-SSD machine, fed the same
// kind of 4 KiB uniform-random read stream the cam-read-4k workload uses.
type stackSeg struct {
	name string
	env  *platform.Env
	ios  int // requests this segment issues
	// drive runs the segment's procs on env's engine and calls tick every
	// few milliseconds of host time, at fixed points of its progress.
	drive func(tick func())
	free  func()
	bad   func() int64 // failed or refused requests seen by the caller side
	end   sim.Time
}

type stacks struct {
	segs   []*stackSeg
	kernel cpustat.Counters // merged POSIX + io_uring per-request CPU cost
	bamSys *bam.System
}

func setupStacks(p params, sp spans) instance {
	w := &stacks{}
	rng := sim.NewRNG(p.seed)
	draw := func(n int) []uint64 {
		t0 := time.Now()
		defer sp.since("harness.populate_ms", t0)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = uint64(rng.Int63n(camSpanBlocks))
		}
		return blocks
	}
	machine := func(i int) *platform.Env {
		t0 := time.Now()
		defer sp.since("platform.build_ms", t0)
		return platform.New(platform.Options{SSDs: camSSDs, Seed: p.seed*8 + uint64(i)})
	}

	// BaM and SPDK-staged: synchronous list gathers of one batch at a time.
	listSeg := func(name string, env *platform.Env, lb xfer.ListBackend, batches int) *stackSeg {
		blocks := draw(batches * camBatchBlocks)
		offs := make([]int64, camBatchBlocks)
		for i := range offs {
			offs[i] = int64(i) * camBlockBytes
		}
		buf := lb.Alloc("bench", camBatchBlocks*camBlockBytes)
		s := &stackSeg{name: name, env: env, ios: len(blocks)}
		s.drive = func(tick func()) {
			env.E.Go("bench."+name, func(p *sim.Proc) {
				for b := 0; b < batches; b++ {
					if b%8 == 7 {
						tick()
					}
					xfer.GatherList(p, lb, blocks[b*camBatchBlocks:(b+1)*camBatchBlocks], buf, offs)
				}
			})
			s.end = env.Run()
		}
		s.bad = func() int64 { return zeroCheck(buf) }
		s.free = buf.Free
		return s
	}
	env := machine(0)
	w.bamSys = bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
	w.segs = append(w.segs, listSeg("bam", env, xfer.NewBaM(env, w.bamSys, camBlockBytes), p.scaled(640, 4)))
	env = machine(1)
	w.segs = append(w.segs, listSeg("spdk", env, xfer.NewSPDK(env, camBlockBytes, stackSPDKHelpers), p.scaled(320, 4)))

	// POSIX and io_uring-poll: 32 worker procs, one request in flight each.
	kernelSeg := func(i int, kind oskernel.StackKind, per int) *stackSeg {
		env := machine(i)
		st := oskernel.NewStack(env.E, kind, oskernel.DefaultConfig(kind), env.HM, env.Devs)
		env.StartDevices()
		blocks := draw(stackWorkers * per)
		s := &stackSeg{name: kind.String(), env: env, ios: len(blocks)}
		var refused int64
		s.drive = func(tick func()) {
			for wk := 0; wk < stackWorkers; wk++ {
				wk := wk
				env.E.Go(fmt.Sprintf("bench.w%d", wk), func(p *sim.Proc) {
					// Payload-form I/O, as the Fig 2 drivers issue it.
					buf := mem.NewPayload(camBlockBytes, mem.DefaultEager())
					defer buf.Release()
					for i, blk := range blocks[wk*per : (wk+1)*per] {
						if wk == 0 && i%64 == 63 {
							tick()
						}
						if st.ReadAtP(p, int64(blk)*camBlockBytes, buf, 0, camBlockBytes) != nvme.StatusSuccess {
							refused++
						}
					}
				})
			}
			s.end = env.Run()
			w.kernel.Add(st.Stat)
		}
		s.bad = func() int64 { return refused }
		s.free = func() {}
		return s
	}
	w.segs = append(w.segs, kernelSeg(2, oskernel.POSIX, p.scaled(4400, 8)))
	w.segs = append(w.segs, kernelSeg(3, oskernel.IOUringPoll, p.scaled(4400, 8)))
	return w
}

// zeroCheck reports 1 when a buffer that only ever received never-written
// blocks does not read as zeros.
func zeroCheck(buf *gpu.Buffer) int64 {
	if buf.Payload().RangeZero(0, buf.Size()) {
		return 0
	}
	return 1
}

func (w *stacks) run(tick func()) {
	for _, s := range w.segs {
		s.drive(tick)
		tick()
	}
}

func (w *stacks) verify(r *rep) {
	for _, s := range w.segs {
		r.attempted += int64(s.ios)
		bad := s.bad()
		var cmds uint64
		var bytes int64
		for _, d := range s.env.Devs {
			st := d.Stats()
			cmds += st.ReadCmds
			bytes += st.ReadBytes
			bad += int64(st.ErrCmds)
		}
		// Every request is exactly one 4 KiB read command.
		if cmds != uint64(s.ios) || bytes != int64(s.ios)*camBlockBytes {
			bad = int64(s.ios)
		}
		r.failed += bad
	}
	bs := w.bamSys.Stats()
	r.failed += int64(bs.FailedBlocks + bs.Timeouts)
}

func (w *stacks) collect(r *rep) {
	var agg envAgg
	for _, s := range w.segs {
		agg.add(s.env, s.end)
	}
	agg.emit(r)
	r.model["sim_s"] = agg.simTime.Seconds()
	bs := w.bamSys.Stats()
	r.model["bam.timeouts"] = float64(bs.Timeouts)
	r.model["bam.failed_blocks"] = float64(bs.FailedBlocks)
	r.model["oskernel.cycles_per_req"] = w.kernel.PerRequestCycles()
}

func (w *stacks) shutdown() {
	for _, s := range w.segs {
		s.free()
		s.env.E.Shutdown()
	}
}
