package harness

import (
	"fmt"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/workload"
)

// throughput drivers shared by the microbenchmark experiments. Each runs a
// fixed byte volume of random I/O at the given granularity through one
// management scheme and reports achieved bytes/s.

// reqBudget picks a per-point workload size: enough requests for steady
// state without exploding event counts at tiny granularities.
func reqBudget(gran int64, quick bool) int64 {
	reqs := int64(4096)
	if quick {
		reqs = 1536
	}
	if total := reqs * gran; total < 16<<20 {
		reqs = (16 << 20) / gran
	}
	if reqs > 16384 {
		reqs = 16384
	}
	return reqs
}

// load is the closed loop behind every throughput point of §IV: batches of
// perBatch blocks drawn from gen, depth of them in flight. The SPDK window
// has no batches: it keeps depth single-block requests in flight until
// perBatch×batches have completed.
type load struct {
	op       nvme.Opcode
	gen      workload.Generator
	perBatch int
	batches  int
	depth    int
}

// blocks is the number of blocks the load moves.
func (l load) blocks() int64 { return int64(l.perBatch) * int64(l.batches) }

// onCAM publishes the batches through m, batch b into slot b%depth of buf,
// and synchronizes the oldest whenever depth are in flight (depth 1 is the
// synchronous prefetch/synchronize pattern).
func (l load) onCAM(p *sim.Proc, m *cam.Manager, buf *gpu.Buffer) {
	slot := int64(l.perBatch) * m.BlockBytes()
	blocks := make([]uint64, l.perBatch)
	var inflight []*cam.Batch
	for b := 0; b < l.batches; b++ {
		l.draw(blocks)
		off := int64(b%l.depth) * slot
		if l.op == nvme.OpRead {
			inflight = append(inflight, m.Prefetch(p, blocks, buf, off))
		} else {
			inflight = append(inflight, m.WriteBack(p, blocks, buf, off))
		}
		if len(inflight) == l.depth {
			m.Synchronize(p, inflight[0])
			inflight = inflight[1:]
		}
	}
	for _, h := range inflight {
		m.Synchronize(p, h)
	}
}

// onBaM gathers (or scatters) the batches through a, one at a time: a BaM
// batch is synchronous, so depth does not apply. It reports the blocks
// that failed.
func (l load) onBaM(p *sim.Proc, a *bam.Array, buf *gpu.Buffer) (failed int64) {
	blocks := make([]uint64, l.perBatch)
	for b := 0; b < l.batches; b++ {
		l.draw(blocks)
		if l.op == nvme.OpRead {
			failed += int64(a.Gather(p, blocks, buf, 0))
		} else {
			failed += int64(a.Scatter(p, blocks, buf, 0))
		}
	}
	return failed
}

// onSPDK submits block-byte requests to d, request i to device i%ssds and
// every one to host address addr, waiting for the oldest whenever depth are
// in flight. It reports the bytes the successful requests moved.
func (l load) onSPDK(p *sim.Proc, d *spdk.Driver, ssds int, block int64, addr mem.Addr) int64 {
	w := newReqWindow("onSPDK", l.depth)
	for i := int64(0); i < l.blocks(); i++ {
		w.submit(d, spdk.Request{
			Op: l.op, Dev: int(i % int64(ssds)),
			SLBA: l.gen.Next() * uint64(block/nvme.LBASize),
			NLB:  uint32(block / nvme.LBASize),
			Addr: addr,
		})
		w.waitNext(p)
	}
	w.drain(p)
	return w.moved
}

// reqWindow is a closed loop's requests in flight: depth records allocated
// once, request i in record i%depth. A record is the Done waiter's (it has
// no Sink), so it is overwritten and resubmitted only after its previous
// request's Done fired. A record's status is tallied when it is reused or
// drained, so moved counts only the bytes of requests that succeeded, each
// once: drain leaves the window empty.
type reqWindow struct {
	loop  string
	recs  []spdk.Request
	n     int   // requests submitted
	moved int64 // bytes of the completed requests that succeeded
}

func newReqWindow(loop string, depth int) *reqWindow {
	return &reqWindow{loop: loop, recs: make([]spdk.Request, depth)}
}

// submit copies req into the next record and submits it to d. It panics if
// the record's previous request is still in flight.
func (w *reqWindow) submit(d *spdk.Driver, req spdk.Request) {
	r := &w.recs[w.n%len(w.recs)]
	if w.n >= len(w.recs) {
		if !r.Done.Fired() {
			panic(fmt.Sprintf("harness: %s reuses request record %d while it is in flight", w.loop, w.n%len(w.recs)))
		}
		w.tally(r)
	}
	*r = req
	w.n++
	d.Submit(r)
}

// waitNext blocks p until the record the next request takes is free.
func (w *reqWindow) waitNext(p *sim.Proc) {
	if w.n >= len(w.recs) {
		p.Wait(&w.recs[w.n%len(w.recs)].Done)
	}
}

// drain blocks p until every request taken has completed, oldest first.
func (w *reqWindow) drain(p *sim.Proc) {
	for i := max(0, w.n-len(w.recs)); i < w.n; i++ {
		r := &w.recs[i%len(w.recs)]
		p.Wait(&r.Done)
		w.tally(r)
	}
	w.n = 0
}

// tally adds a completed request's bytes to moved if it succeeded.
func (w *reqWindow) tally(r *spdk.Request) {
	if r.Status == nvme.StatusSuccess {
		w.moved += int64(r.NLB) * nvme.LBASize
	}
}

// draw fills blocks with the generator's next ids.
func (l load) draw(blocks []uint64) {
	for i := range blocks {
		blocks[i] = l.gen.Next()
	}
}

// camRun runs l through a CAM manager built from ccfg over a fresh platform,
// into a buffer of depth batch slots, and reports the bytes/s its successful
// blocks moved.
func camRun(cfg RunConfig, opts platform.Options, ccfg cam.Config, l load) (float64, *platform.Env, *cam.Manager) {
	env := cfg.newEnv(opts)
	mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	buf := mgr.Alloc("bench", int64(l.perBatch)*ccfg.BlockBytes*int64(l.depth))
	env.E.Go("bench", func(p *sim.Proc) { l.onCAM(p, mgr, buf) })
	end := runEnv(cfg, env)
	// Return the bench buffer's backing to the shared pool: figure sweeps
	// build a fresh platform per point, and an unfreed multi-megabyte
	// destination forces a fresh (cleared) allocation every time.
	mgr.Free(buf)
	st := mgr.Stats()
	return float64(st.BytesRead+st.BytesWritten) / end.Seconds(), env, mgr
}

// bamRun runs l through a, an array of block-byte blocks over env, into a
// one-batch buffer and reports the bytes/s its successful blocks moved.
func bamRun(cfg RunConfig, env *platform.Env, a *bam.Array, block int64, l load) float64 {
	buf := env.GPU.Alloc("bench", int64(l.perBatch)*block)
	var failed int64
	env.E.Go("bench", func(p *sim.Proc) { failed = l.onBaM(p, a, buf) })
	end := runEnv(cfg, env)
	buf.Free()
	return float64((l.blocks()-failed)*block) / end.Seconds()
}

// camThroughput measures CAM batch throughput over 4 Mi uniformly random
// blocks. cores<=0 uses the default (one per two SSDs); outstanding is the
// number of batches in flight.
func camThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64, cores, outstanding int, envOpts platform.Options) (float64, *platform.Env, *cam.Manager) {
	envOpts.SSDs = ssds
	blockBytes := min(gran, spdk.MaxTransfer())
	perBatch := int(min(4096, 64<<20/blockBytes))
	ccfg := cam.DefaultConfig(ssds)
	ccfg.BlockBytes = blockBytes
	if cores > 0 {
		ccfg.Cores = cores
	}
	ccfg.MaxOutstanding = outstanding + 1
	ccfg.MaxBatch = perBatch
	// The workload volume is set by the NVMe command size (CAM splits
	// granules larger than the MDTS into blockBytes commands, so its
	// behavior is granularity-insensitive above 128 KiB — the point of
	// Fig 16).
	batches := max(int(reqBudget(blockBytes, cfg.Quick))/perBatch, 2)
	return camRun(cfg, envOpts, ccfg, load{op, workload.NewUniform(7, 1<<22), perBatch, batches, outstanding})
}

// bamThroughput measures BaM array throughput.
func bamThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64) float64 {
	env := cfg.newEnv(platform.Options{SSDs: ssds})
	blockBytes := min(gran, spdk.MaxTransfer())
	perBatch := min(4096, 64<<20/blockBytes)
	batches := max(reqBudget(gran, cfg.Quick)*(gran/blockBytes)/perBatch, 2)
	l := load{op, workload.NewUniform(7, 1<<22), int(perBatch), int(batches), 1}
	return bamRun(cfg, env, newBaM(env).NewArray(blockBytes), blockBytes, l)
}

// spdkContigThroughput measures the classic SPDK staged flow with a
// CONTIGUOUS destination: granule-sized commands land in a large staging
// region and one cudaMemcpyAsync moves each filled region, double-buffered
// so the copy overlaps the next region's fill. This is the configuration
// of Figures 8, 14 and 15.
func spdkContigThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64, envOpts platform.Options) (float64, *platform.Env, *spdk.Driver) {
	blockBytes := min(gran, spdk.MaxTransfer())
	reqs := reqBudget(gran, cfg.Quick) * (gran / blockBytes)
	return spdkContigRun(cfg, ssds, op, blockBytes, max(reqs/(stagingRegion/blockBytes), 6), envOpts)
}

// stagingRegion is the size of one contiguous staging region.
const stagingRegion = 4 << 20

// spdkContigRun is spdkContigThroughput's closed loop over regions staging
// regions of blockBytes commands; it reports the bytes/s its successful
// commands moved.
func spdkContigRun(cfg RunConfig, ssds int, op nvme.Opcode, blockBytes, regions int64, envOpts platform.Options) (float64, *platform.Env, *spdk.Driver) {
	envOpts.SSDs = ssds
	env := cfg.newEnv(envOpts)
	d := newSPDK(env)
	region := int64(stagingRegion)
	// Requests flow continuously through a sliding window (no per-region
	// barrier); when a region's last command completes, its staging slot
	// is drained by one big cudaMemcpyAsync. Two staging slots rotate, so
	// region r+2 cannot start filling until region r's copy (and the DRAM
	// crossings behind it) finished — the reuse pacing that makes the
	// memory-channel experiments bite. Three slots hide the copy latency
	// completely at full rate.
	perRegion := region / blockBytes
	staging := [3]*hostmem.Buffer{
		env.HM.Alloc("stage0", region),
		env.HM.Alloc("stage1", region),
		env.HM.Alloc("stage2", region),
	}
	copySig := make([]sim.Signal, regions)
	copyEnd := make([]sim.Time, regions)
	remaining := make([]int64, regions)
	for r := range copySig {
		copySig[r].Init(env.E, "region")
		remaining[r] = perRegion
	}
	// At most three regions fill at once, one per staging slot, so a
	// completion's slot names its region: one OnDone per slot.
	var slotRegion [3]int64
	var onDone [3]func()
	for k := range onDone {
		onDone[k] = func() {
			r := slotRegion[k]
			remaining[r]--
			if remaining[r] == 0 {
				// Region complete: one big memcpy. The raw driver
				// charged one DRAM crossing per command; the copy
				// read leg is the second.
				dramDone := env.HM.ReserveTraffic(region)
				copyEnd[r] = env.CE.ReserveCopy(region)
				if dramDone > copyEnd[r] {
					copyEnd[r] = dramDone
				}
				copySig[r].Fire()
			}
		}
	}
	rng := sim.NewRNG(9)
	w := newReqWindow("spdkContigRun", 64*ssds)
	env.E.Go("bench", func(p *sim.Proc) {
		for i := int64(0); i < regions*perRegion; i++ {
			r := i / perRegion
			if i%perRegion == 0 {
				if r >= 3 {
					// Staging slot reuse: wait for region r-3 to be copied out.
					p.Wait(&copySig[r-3])
					p.SleepUntil(copyEnd[r-3])
				}
				slotRegion[r%3] = r
			}
			w.submit(d, spdk.Request{
				Op: op, Dev: int(i % int64(ssds)), // striped like the staged readers
				SLBA:   uint64(rng.Int63n(1<<21)) * uint64(blockBytes/nvme.LBASize),
				NLB:    uint32(blockBytes / nvme.LBASize),
				Addr:   staging[r%3].Addr + mem.Addr((i%perRegion)*blockBytes),
				OnDone: onDone[r%3],
			})
			w.waitNext(p)
		}
		w.drain(p)
		last := regions - 1
		p.Wait(&copySig[last])
		p.SleepUntil(copyEnd[last])
	})
	end := runEnv(cfg, env)
	for _, s := range staging {
		s.Free()
	}
	return float64(w.moved) / end.Seconds(), env, d
}

// kernelThroughput measures a kernel I/O stack with parallel workers (the
// paper's fio-style load) and reports the bytes/s its successful requests
// moved.
func kernelThroughput(cfg RunConfig, kind oskernel.StackKind, ssds int, op nvme.Opcode, gran int64) (float64, *oskernel.Stack) {
	env := cfg.newEnv(platform.Options{SSDs: ssds})
	st := oskernel.NewStack(env.E, kind, oskernel.DefaultConfig(kind), env.HM, env.Devs)
	env.StartDevices()
	workers := 32
	per := int(reqBudget(gran, cfg.Quick)) / workers
	if cfg.Quick {
		per /= 2
	}
	if per < 20 {
		per = 20
	}
	var moved int64
	rng := sim.NewRNG(11)
	span := int64(ssds) << 30
	for w := 0; w < workers; w++ {
		seed := rng.Uint64()
		env.E.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			lr := sim.NewRNG(seed)
			// Payload-form I/O: nothing consumes the content, so the
			// worker buffer never materializes.
			buf := mem.NewPayload(gran, mem.DefaultEager())
			defer buf.Release()
			for i := 0; i < per; i++ {
				off := lr.Int63n(span/gran) * gran
				var status nvme.Status
				if op == nvme.OpRead {
					status = st.ReadAtP(p, off, buf, 0, gran)
				} else {
					status = st.WriteAtP(p, off, buf, 0, gran)
				}
				if status == nvme.StatusSuccess {
					moved += gran
				}
			}
		})
	}
	end := runEnv(cfg, env)
	return float64(moved) / end.Seconds(), st
}

// spdkRawThroughput drives the raw asynchronous SPDK API to host memory at
// high queue depth (the "SPDK async" line of Fig 11 and the cost baseline
// of Fig 13), reporting the bytes/s its successful requests moved.
func spdkRawThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64) (float64, *spdk.Driver) {
	env := cfg.newEnv(platform.Options{SSDs: ssds})
	d := newSPDK(env)
	buf := env.HM.Alloc("raw", gran)
	l := load{op: op, gen: workload.NewUniform(13, 1<<21), perBatch: 1, batches: int(reqBudget(gran, cfg.Quick)), depth: 64 * ssds}
	var moved int64
	env.E.Go("bench", func(p *sim.Proc) { moved = l.onSPDK(p, d, ssds, gran, buf.Addr) })
	end := runEnv(cfg, env)
	buf.Free()
	return float64(moved) / end.Seconds(), d
}

// newSPDK builds and starts a raw driver with the paper's
// one-thread-per-two-SSDs ratio.
func newSPDK(env *platform.Env) *spdk.Driver {
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (len(env.Devs)+1)/2)
	d.Start()
	return d
}

// newBaM builds a BaM system over an environment.
func newBaM(env *platform.Env) *bam.System {
	return bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
}
