package harness

import (
	"fmt"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
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

// camThroughput measures CAM batch throughput. cores<=0 uses the default
// (one per two SSDs). outstanding is the number of batches in flight
// (1 = the synchronous prefetch/synchronize pattern).
func camThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64, cores, outstanding int, envOpts platform.Options) (float64, *platform.Env, *cam.Manager) {
	envOpts.SSDs = ssds
	env := platform.New(envOpts)
	blockBytes := gran
	if blockBytes > spdk.MaxTransfer() {
		blockBytes = spdk.MaxTransfer()
	}
	ccfg := cam.DefaultConfig(ssds)
	ccfg.BlockBytes = blockBytes
	if cores > 0 {
		ccfg.Cores = cores
	}
	if outstanding <= 0 {
		outstanding = 1
	}
	ccfg.MaxOutstanding = outstanding + 1
	perBatch := 4096
	if int64(perBatch)*blockBytes > 64<<20 {
		perBatch = int(64 << 20 / blockBytes)
	}
	ccfg.MaxBatch = perBatch
	mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)

	// The workload volume is set by the NVMe command size (CAM splits
	// granules larger than the MDTS into blockBytes commands, so its
	// behavior is granularity-insensitive above 128 KiB — the point of
	// Fig 16).
	reqs := reqBudget(blockBytes, cfg.Quick)
	batches := int(reqs) / perBatch
	if batches < 2 {
		batches = 2
	}
	buf := mgr.Alloc("bench", int64(perBatch)*blockBytes*int64(outstanding))
	total := int64(batches) * int64(perBatch) * blockBytes
	rng := sim.NewRNG(7)
	span := mgr.CapacityBlocks()
	if span > 1<<22 {
		span = 1 << 22
	}
	env.E.Go("bench", func(p *sim.Proc) {
		var handles []*cam.Batch
		for b := 0; b < batches; b++ {
			blocks := make([]uint64, perBatch)
			for i := range blocks {
				blocks[i] = uint64(rng.Int63n(int64(span)))
			}
			slot := int64(b%outstanding) * int64(perBatch) * blockBytes
			var h *cam.Batch
			if op == nvme.OpRead {
				h = mgr.Prefetch(p, blocks, buf, slot)
			} else {
				h = mgr.WriteBack(p, blocks, buf, slot)
			}
			handles = append(handles, h)
			if len(handles) >= outstanding {
				mgr.Synchronize(p, handles[0])
				handles = handles[1:]
			}
		}
		for _, h := range handles {
			mgr.Synchronize(p, h)
		}
	})
	end := runEnv(cfg, env)
	// Return the bench buffer's backing to the shared pool: figure sweeps
	// build a fresh platform per point, and an unfreed multi-megabyte
	// destination forces a fresh (cleared) allocation every time.
	mgr.Free(buf)
	return float64(total) / end.Seconds(), env, mgr
}

// bamThroughput measures BaM array throughput (and leaves the GPU's SM
// accounting behind for inspection).
func bamThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64) (float64, *platform.Env) {
	env := platform.New(platform.Options{SSDs: ssds})
	sys := newBaM(env)
	blockBytes := gran
	if blockBytes > spdk.MaxTransfer() {
		blockBytes = spdk.MaxTransfer()
	}
	arr := sys.NewArray(blockBytes)
	reqs := reqBudget(gran, cfg.Quick) * (gran / blockBytes)
	perBatch := int64(4096)
	if perBatch*blockBytes > 64<<20 {
		perBatch = 64 << 20 / blockBytes
	}
	batches := reqs / perBatch
	if batches < 2 {
		batches = 2
	}
	buf := env.GPU.Alloc("bench", perBatch*blockBytes)
	rng := sim.NewRNG(7)
	total := batches * perBatch * blockBytes
	env.E.Go("bench", func(p *sim.Proc) {
		for b := int64(0); b < batches; b++ {
			blocks := make([]uint64, perBatch)
			for i := range blocks {
				blocks[i] = uint64(rng.Int63n(1 << 22))
			}
			if op == nvme.OpRead {
				arr.Gather(p, blocks, buf, 0)
			} else {
				arr.Scatter(p, blocks, buf, 0)
			}
		}
	})
	end := runEnv(cfg, env)
	buf.Free()
	return float64(total) / end.Seconds(), env
}

// spdkContigThroughput measures the classic SPDK staged flow with a
// CONTIGUOUS destination: granule-sized commands land in a large staging
// region and one cudaMemcpyAsync moves each filled region, double-buffered
// so the copy overlaps the next region's fill. This is the configuration
// of Figures 8, 14 and 15.
func spdkContigThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64, envOpts platform.Options) (float64, *platform.Env, *spdk.Driver) {
	envOpts.SSDs = ssds
	env := platform.New(envOpts)
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (ssds+1)/2)
	d.Start()
	blockBytes := gran
	if blockBytes > spdk.MaxTransfer() {
		blockBytes = spdk.MaxTransfer()
	}
	region := int64(4 << 20)
	// Requests flow continuously through a sliding window (no per-region
	// barrier); when a region's last command completes, its staging slot
	// is drained by one big cudaMemcpyAsync. Two staging slots rotate, so
	// region r+2 cannot start filling until region r's copy (and the DRAM
	// crossings behind it) finished — the reuse pacing that makes the
	// memory-channel experiments bite. Three slots hide the copy latency
	// completely at full rate.
	reqs := reqBudget(gran, cfg.Quick) * (gran / blockBytes)
	perRegion := region / blockBytes
	regions := reqs / perRegion
	if regions < 6 {
		regions = 6
	}
	total := regions * region
	staging := [3]*hostmem.Buffer{
		env.HM.Alloc("stage0", region),
		env.HM.Alloc("stage1", region),
		env.HM.Alloc("stage2", region),
	}
	copySig := make([]*sim.Signal, regions)
	copyEnd := make([]sim.Time, regions)
	remaining := make([]int64, regions)
	for r := range copySig {
		copySig[r] = env.E.NewSignal(fmt.Sprintf("region%d", r))
		remaining[r] = perRegion
	}
	rng := sim.NewRNG(9)
	depth := 64 * ssds
	env.E.Go("bench", func(p *sim.Proc) {
		var window []*spdk.Request
		for i := int64(0); i < regions*perRegion; i++ {
			r := i / perRegion
			if r >= 3 && i%perRegion == 0 {
				// Staging slot reuse: wait for region r-3 to be copied out.
				p.Wait(copySig[r-3])
				p.SleepUntil(copyEnd[r-3])
			}
			dev := int(i % int64(ssds)) // striped like the staged readers
			slba := uint64(rng.Int63n(1<<21)) * uint64(blockBytes/nvme.LBASize)
			req := &spdk.Request{
				Op: op, Dev: dev, SLBA: slba,
				NLB:  uint32(blockBytes / nvme.LBASize),
				Addr: staging[r%3].Addr + mem64((i%perRegion)*blockBytes),
			}
			rr := r
			req.OnDone = func() {
				remaining[rr]--
				if remaining[rr] == 0 {
					// Region complete: one big memcpy. The raw driver
					// charged one DRAM crossing per command; the copy
					// read leg is the second.
					dramDone := env.HM.ReserveTraffic(region)
					copyEnd[rr] = env.CE.ReserveCopy(region)
					if dramDone > copyEnd[rr] {
						copyEnd[rr] = dramDone
					}
					copySig[rr].Fire()
				}
			}
			d.Submit(req)
			window = append(window, req)
			if len(window) >= depth {
				p.Wait(&window[0].Done)
				window = window[1:]
			}
		}
		for _, req := range window {
			p.Wait(&req.Done)
		}
		last := regions - 1
		p.Wait(copySig[last])
		p.SleepUntil(copyEnd[last])
	})
	end := runEnv(cfg, env)
	for _, s := range staging {
		s.Free()
	}
	return float64(total) / end.Seconds(), env, d
}

// kernelThroughput measures a kernel I/O stack with parallel workers (the
// paper's fio-style load) and reports bytes/s.
func kernelThroughput(cfg RunConfig, kind oskernel.StackKind, ssds int, op nvme.Opcode, gran int64) (float64, *oskernel.Stack) {
	env := platform.New(platform.Options{SSDs: ssds})
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
	total := int64(workers*per) * gran
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
				if op == nvme.OpRead {
					st.ReadAtP(p, off, buf, 0, gran)
				} else {
					st.WriteAtP(p, off, buf, 0, gran)
				}
			}
		})
	}
	end := runEnv(cfg, env)
	return float64(total) / end.Seconds(), st
}

// spdkRawThroughput drives the raw asynchronous SPDK API to host memory at
// high queue depth (the "SPDK async" line of Fig 11 and the cost baseline
// of Fig 13).
func spdkRawThroughput(cfg RunConfig, ssds int, op nvme.Opcode, gran int64) (float64, *spdk.Driver, *platform.Env) {
	env := platform.New(platform.Options{SSDs: ssds})
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (ssds+1)/2)
	d.Start()
	buf := env.HM.Alloc("raw", gran)
	reqs := reqBudget(gran, cfg.Quick)
	rng := sim.NewRNG(13)
	depth := 64 * ssds
	env.E.Go("bench", func(p *sim.Proc) {
		issued, done := 0, 0
		var inflight []*spdk.Request
		for done < int(reqs) {
			for issued < int(reqs) && len(inflight) < depth {
				req := &spdk.Request{
					Op: op, Dev: issued % ssds,
					SLBA: uint64(rng.Int63n(1<<21)) * uint64(gran/nvme.LBASize),
					NLB:  uint32(gran / nvme.LBASize),
					Addr: buf.Addr,
				}
				d.Submit(req)
				inflight = append(inflight, req)
				issued++
			}
			p.Wait(&inflight[0].Done)
			inflight = inflight[1:]
			done++
		}
	})
	end := runEnv(cfg, env)
	buf.Free()
	return float64(int64(reqs)*gran) / end.Seconds(), d, env
}

// mem64 converts a byte offset to a physical-address delta.
func mem64(v int64) mem.Addr { return mem.Addr(v) }

// Short aliases used by the experiment files.
type spdkReq = spdk.Request

const spdkMaxXfer = 128 << 10

// spdkDriverForBench builds and starts a driver with the paper's
// one-thread-per-two-SSDs ratio.
func spdkDriverForBench(env *platform.Env, ssds int) *spdk.Driver {
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (ssds+1)/2)
	d.Start()
	return d
}

// newBaM builds a BaM system over an environment.
func newBaM(env *platform.Env) *bam.System {
	return bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
}
