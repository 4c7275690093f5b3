package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

const (
	camSSDs        = 12
	camBlockBytes  = 4096
	camBatchBlocks = 1024
	camOutstanding = 8
	camSpanBlocks  = 1 << 22 // address span, as in the Fig 8 drivers
	camTickBatches = 64      // batches per host-time slice
)

// camMachine is the 12-SSD CAM platform both cam-* workloads run on.
type camMachine struct {
	env *platform.Env
	mgr *cam.Manager
	buf *gpu.Buffer        // camOutstanding slots of one batch each
	lat *metrics.Histogram // simulated publish→Synchronize latency per batch, µs
	sim sim.Time           // simulated duration of the timed phase
}

func newCAMMachine(p params, sp spans) *camMachine {
	t0 := time.Now()
	env := platform.New(platform.Options{SSDs: camSSDs, Seed: p.seed})
	cfg := cam.DefaultConfig(camSSDs)
	cfg.BlockBytes = camBlockBytes
	cfg.MaxBatch = camBatchBlocks
	cfg.MaxOutstanding = camOutstanding + 1
	mgr := cam.New(env.E, cfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	buf := mgr.Alloc("bench", camOutstanding*camBatchBlocks*camBlockBytes)
	sp.since("platform.build_ms", t0)
	return &camMachine{env: env, mgr: mgr, buf: buf}
}

func slotOff(batch int) int64 {
	return int64(batch%camOutstanding) * camBatchBlocks * camBlockBytes
}

// pipeline publishes n batches with camOutstanding in flight, always
// synchronising the oldest, and records each batch's simulated
// publish→Synchronize-return latency. publish issues batch b; done runs
// after batch b's Synchronize returns.
func (m *camMachine) pipeline(n int, tick func(), publish func(p *sim.Proc, b int) *cam.Batch, done func(b int, h *cam.Batch)) {
	m.lat = metrics.NewHistogram("batch")
	start := m.env.E.Now()
	m.env.E.Go("bench.gpu", func(p *sim.Proc) {
		handles := make([]*cam.Batch, n)
		issued := make([]sim.Time, n)
		sync := func(b int) {
			m.mgr.Synchronize(p, handles[b])
			m.lat.Add((p.Now() - issued[b]).Micros())
			if done != nil {
				done(b, handles[b])
			}
		}
		for b := 0; b < n; b++ {
			issued[b] = p.Now()
			handles[b] = publish(p, b)
			if b >= camOutstanding-1 {
				sync(b - camOutstanding + 1)
			}
			if tick != nil && (b+1)%camTickBatches == 0 {
				tick()
			}
		}
		for b := max(0, n-camOutstanding+1); b < n; b++ {
			sync(b)
		}
	})
	m.sim = m.env.Run() - start
}

func (m *camMachine) collect(r *rep) {
	r.model["sim_s"] = m.sim.Seconds()
	r.model["sim_lat_p50_us"] = m.lat.Percentile(50)
	r.model["sim_lat_p99_us"] = m.lat.Percentile(99)
	collectCAM(r, m.mgr, m.env)
}

// collectCAM reads the counts of a CAM manager, its SPDK-style backend and
// the machine under it.
func collectCAM(r *rep, mgr *cam.Manager, env *platform.Env) {
	st := mgr.Stats()
	r.model["cam.batches"] = float64(st.Batches)
	r.model["cam.requests"] = float64(st.Requests)
	r.model["cam.cmds_per_req"] = ratio(float64(st.Commands), float64(st.Requests))
	r.model["cam.active_cores"] = float64(mgr.ActiveCores())
	r.model["cam.core_adjusts"] = float64(st.CoreAdjustUp + st.CoreAdjustDown)
	cpu := mgr.BackendStats()
	r.model["spdk.instr_per_req"] = cpu.PerRequestInstructions()
	r.model["spdk.cycles_per_req"] = cpu.PerRequestCycles()
	rec := mgr.Driver().Recovery()
	r.model["spdk.retries"] = float64(rec.Retries)
	r.model["spdk.timeouts"] = float64(rec.Timeouts)
	var agg envAgg
	agg.add(env, env.E.Now())
	agg.emit(r)
}

func (m *camMachine) shutdown() {
	m.mgr.Free(m.buf)
	m.env.E.Shutdown()
}

// ---- cam-read-4k ----

type camRead struct {
	*camMachine
	blocks  []uint64 // batches*camBatchBlocks generated addresses
	batches int
}

func setupCAMRead(p params, sp spans) instance {
	w := &camRead{camMachine: newCAMMachine(p, sp), batches: p.scaled(1536, 2*camOutstanding)}
	t0 := time.Now()
	rng := sim.NewRNG(p.seed)
	span := int64(w.mgr.CapacityBlocks())
	if span > camSpanBlocks {
		span = camSpanBlocks
	}
	w.blocks = make([]uint64, w.batches*camBatchBlocks)
	for i := range w.blocks {
		w.blocks[i] = uint64(rng.Int63n(span))
	}
	sp.since("harness.populate_ms", t0)
	return w
}

func (w *camRead) run(tick func()) {
	w.pipeline(w.batches, tick, func(p *sim.Proc, b int) *cam.Batch {
		return w.mgr.Prefetch(p, w.blocks[b*camBatchBlocks:(b+1)*camBatchBlocks], w.buf, slotOff(b))
	}, nil)
}

func (w *camRead) verify(r *rep) {
	st := w.mgr.Stats()
	r.attempted = int64(len(w.blocks))
	r.failed = int64(st.FailedRequests)
	// Never-written blocks read as zeros, and exactly the requested
	// bytes must have moved; anything else fails the whole rep.
	want := int64(len(w.blocks)) * camBlockBytes
	if st.BytesRead != want || st.Requests != uint64(len(w.blocks)) ||
		!w.buf.Payload().RangeZero(0, w.buf.Size()) {
		r.failed = r.attempted
	}
}

// ---- cam-mixed-4k ----

// mixedHotBlocks is the hot set at scale 1; it never shrinks below twice the
// blocks that can be in flight, so a free block is always quick to draw.
const mixedHotBlocks = 32768

// camMixed alternates write_back and prefetch batches over a hot set of
// stamped blocks. A block in an in-flight batch is never picked again until
// that batch has been synchronised, so every read has exactly one legal
// content: the last version written.
type camMixed struct {
	*camMachine
	hot      []uint64 // hot index -> block id
	ver      []uint64 // hot index -> last version written
	picks    []int32  // batches*camBatchBlocks hot indices
	batches  int
	template []byte
	block    []byte
	ids      []uint64 // scratch: one batch of block ids
	bad      int64
	reads    int64
}

func setupCAMMixed(p params, sp spans) instance {
	w := &camMixed{camMachine: newCAMMachine(p, sp), batches: p.scaled(512, 2*camOutstanding) &^ 1}
	hotBlocks := p.scaled(mixedHotBlocks, 2*camOutstanding*camBatchBlocks) &^ (camBatchBlocks - 1)
	t0 := time.Now()
	// The application fills this buffer with real data, so it holds real
	// bytes; a lazy payload would track every stamped block as an extent.
	w.buf.MakeEager()
	rng := sim.NewRNG(p.seed)
	seen := make(map[uint64]bool, hotBlocks)
	w.hot = make([]uint64, 0, hotBlocks)
	for len(w.hot) < hotBlocks {
		if b := uint64(rng.Int63n(camSpanBlocks)); !seen[b] {
			seen[b] = true
			w.hot = append(w.hot, b)
		}
	}
	w.ver = make([]uint64, hotBlocks)
	w.template = make([]byte, camBlockBytes)
	for i := 0; i < camBlockBytes; i += 8 {
		binary.LittleEndian.PutUint64(w.template[i:], rng.Uint64()|1)
	}
	w.block = make([]byte, camBlockBytes)
	w.ids = make([]uint64, camBatchBlocks)

	// Picks are generated against the logical in-flight window (batch b is
	// published while b-7..b-1 are outstanding), which the pipeline keeps
	// regardless of timing, so they can be fixed before the timed phase.
	busy := make([]bool, hotBlocks)
	w.picks = make([]int32, w.batches*camBatchBlocks)
	for b := 0; b < w.batches; b++ {
		if old := b - camOutstanding; old >= 0 {
			for _, i := range w.picks[old*camBatchBlocks : (old+1)*camBatchBlocks] {
				busy[i] = false
			}
		}
		for k := 0; k < camBatchBlocks; k++ {
			i := int32(rng.Int63n(int64(hotBlocks)))
			for busy[i] {
				i = int32(rng.Int63n(int64(hotBlocks)))
			}
			busy[i] = true
			w.picks[b*camBatchBlocks+k] = i
		}
	}

	// Populate: every hot block gets version 1 through write_back.
	all := make([]int32, hotBlocks)
	for i := range all {
		all[i] = int32(i)
	}
	w.pipeline(hotBlocks/camBatchBlocks, nil, func(p *sim.Proc, b int) *cam.Batch {
		return w.write(p, b, all[b*camBatchBlocks:(b+1)*camBatchBlocks])
	}, nil)
	sp.since("harness.populate_ms", t0)
	return w
}

// write stamps one batch of hot blocks with their next version into the
// batch's buffer slot and publishes the write_back.
func (w *camMixed) write(p *sim.Proc, b int, picks []int32) *cam.Batch {
	pay := w.buf.Payload()
	off := slotOff(b)
	copy(w.block, w.template)
	for k, i := range picks {
		w.ver[i]++
		w.ids[k] = w.hot[i]
		binary.LittleEndian.PutUint64(w.block[0:], w.hot[i])
		binary.LittleEndian.PutUint64(w.block[8:], w.ver[i])
		pay.WriteAt(w.block, off+int64(k)*camBlockBytes)
	}
	return w.mgr.WriteBack(p, w.ids, w.buf, off)
}

func (w *camMixed) batchPicks(b int) []int32 {
	return w.picks[b*camBatchBlocks : (b+1)*camBatchBlocks]
}

func (w *camMixed) run(tick func()) {
	w.pipeline(w.batches, tick,
		func(p *sim.Proc, b int) *cam.Batch {
			picks := w.batchPicks(b)
			if b%2 == 0 {
				return w.write(p, b, picks)
			}
			for k, i := range picks {
				w.ids[k] = w.hot[i]
			}
			return w.mgr.Prefetch(p, w.ids, w.buf, slotOff(b))
		},
		func(b int, h *cam.Batch) {
			if !h.OK() {
				w.bad += int64(h.Errors())
			}
			if b%2 == 1 {
				w.check(b)
			}
		})
}

// check compares every block a prefetch batch brought back against its
// stamp (block id + version) and the first block against the full template.
func (w *camMixed) check(b int) {
	pay := w.buf.Payload()
	off := slotOff(b)
	var stamp [16]byte
	for k, i := range w.batchPicks(b) {
		pay.ReadAt(stamp[:], off+int64(k)*camBlockBytes)
		if binary.LittleEndian.Uint64(stamp[0:]) != w.hot[i] || binary.LittleEndian.Uint64(stamp[8:]) != w.ver[i] {
			w.bad++
		}
		w.reads++
	}
	pay.ReadAt(w.block, off)
	if !bytes.Equal(w.block[16:], w.template[16:]) {
		w.bad++
	}
}

func (w *camMixed) verify(r *rep) {
	st := w.mgr.Stats()
	r.attempted = int64(len(w.picks))
	r.failed = w.bad
	if f := int64(st.FailedRequests); f > r.failed {
		r.failed = f
	}
	if w.reads != int64(len(w.picks))/2 {
		r.failed = r.attempted
	}
}
