package kvcache

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/gpu"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/xfer"
)

// Stats aggregates the serving run. Every per-step block access lands in
// exactly one of Hits (served from the tier), Prefetched (arrived — or
// at least departed — ahead of the access via the prefetcher), or
// Misses (a synchronous fill stalled the step). Fills and Spills count
// SSD block reads and writes, so wasted prefetches (evicted before
// consumption) show up as Fills > Prefetched + Misses.
type Stats struct {
	Sessions      int
	DecodedTokens uint64
	Hits          uint64
	Prefetched    uint64
	Misses        uint64
	Fills         uint64
	Spills        uint64
	CleanDrops    uint64
	FirstArrival  sim.Time
	LastEnd       sim.Time
}

// HitRate is the fraction of block accesses served from the DRAM tier
// without any SSD involvement.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Prefetched + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PrefetchRate is the fraction of SSD-served accesses the prefetcher
// covered (the async batches that overlapped decode compute).
func (s Stats) PrefetchRate() float64 {
	ssd := s.Prefetched + s.Misses
	if ssd == 0 {
		return 0
	}
	return float64(s.Prefetched) / float64(ssd)
}

// TokensPerSec is decode throughput over the serving makespan.
func (s Stats) TokensPerSec() float64 {
	span := s.LastEnd - s.FirstArrival
	if span <= 0 {
		return 0
	}
	return float64(s.DecodedTokens) / span.Seconds()
}

// inflight is one batched transfer's completion record, shared by every
// key it covers. Whoever needs a covered key first settles the whole
// batch (state transitions run exactly once, in the settling proc).
//
// The record is published in Server.pend before the backend has returned
// the handle, and a backend's Start*List may yield (CAM's publish does), so
// another session can find it with h still nil. Such a waiter parks on
// issued.
//
// Records are recycled through Server.idle, slices and signal included.
type inflight struct {
	h       xfer.Handle
	issued  sim.Signal // fires when h is set
	keys    []Key
	ids     []uint64
	offs    []int64
	fill    bool
	done    bool
	waiters int // procs inside settle; the record is not reused before 0
}

// setHandle records the started transfer and releases early waiters.
func (f *inflight) setHandle(h xfer.Handle) {
	f.h = h
	f.issued.Fire()
}

// Server runs the multi-session serving workload over one list backend.
type Server struct {
	env      *platform.Env
	lb       xfer.ListBackend
	cfg      Config
	perLayer int

	tier *Tier
	buf  *gpu.Buffer
	maps []*Map

	sessions []*session
	// pend is indexed by frame: a Filling or Spilling block always holds
	// one, and its covering transfer sits there until settled.
	pend []*inflight
	idle sim.FreeList[inflight]
	// frameAvail is what reserveFrames parks on when nothing is free or
	// evictable; any release of capacity fires and re-arms it.
	frameAvail *sim.Signal

	ttft *metrics.Histogram
	step *metrics.Histogram

	victims []Key
	dirty   []Key

	stats Stats
}

// session is one serving stream's decode state.
type session struct {
	srv     *Server
	id      int
	spec    SessionSpec
	m       *Map
	arrival sim.Time

	sum    uint64 // checksum folded from stamps read off the data plane
	expect uint64 // the same fold computed analytically
	end    sim.Time

	need   []Key
	fetch  []Key
	pins   []int32 // frames pinned for the step in progress
	frames []int32
	decode string // the decode kernel's name
	stamp  [stampBytes]byte
}

// New builds a server over env and a list-capable backend. The backend's
// block size must match cfg.BlockBytes, and the tier must be large
// enough that every session's worst-case pinned working set plus one
// eviction batch fits — an undersized tier would deadlock reserveFrames,
// not degrade, so it is rejected here.
func New(env *platform.Env, lb xfer.ListBackend, cfg Config, specs []SessionSpec) *Server {
	if len(specs) == 0 {
		panic("kvcache: no sessions")
	}
	if cfg.Layers <= 0 || cfg.BlockTokens <= 0 || cfg.Window <= 0 || cfg.TopK < 0 || cfg.EvictBatch <= 0 {
		panic("kvcache: invalid config")
	}
	if lb.BlockBytes() != cfg.BlockBytes {
		panic(fmt.Sprintf("kvcache: backend block %d != config block %d", lb.BlockBytes(), cfg.BlockBytes))
	}
	if cfg.BlockBytes < stampBytes {
		panic("kvcache: block too small for its content stamp")
	}
	perLayer := 0
	for _, sp := range specs {
		if sp.Prompt <= 0 || sp.Decode <= 0 {
			panic("kvcache: sessions need positive prompt and decode lengths")
		}
		if n := (sp.Prompt + sp.Decode + cfg.BlockTokens - 1) / cfg.BlockTokens; n > perLayer {
			perLayer = n
		}
	}
	setMax := cfg.Window + cfg.TopK
	minFrames := len(specs)*cfg.Layers*setMax + cfg.EvictBatch
	if cfg.DRAMBlocks < minFrames {
		panic(fmt.Sprintf("kvcache: tier of %d frames under the %d the pinned working sets plus one eviction batch need", cfg.DRAMBlocks, minFrames))
	}
	s := &Server{
		env:        env,
		lb:         lb,
		cfg:        cfg,
		perLayer:   perLayer,
		tier:       NewTier(TierConfig{Frames: cfg.DRAMBlocks, BoostPerHit: 8, BoostCap: 64}),
		buf:        lb.Alloc("kv.tier", int64(cfg.DRAMBlocks)*cfg.BlockBytes),
		pend:       make([]*inflight, cfg.DRAMBlocks),
		frameAvail: env.E.NewSignal("kv.frames"),
		ttft:       metrics.NewHistogram("ttft"),
		step:       metrics.NewHistogram("step"),
	}
	for i, sp := range specs {
		m := NewMap(cfg.Layers, perLayer)
		s.maps = append(s.maps, m)
		s.sessions = append(s.sessions, &session{
			srv:     s,
			id:      i,
			spec:    sp,
			m:       m,
			arrival: sim.Time(i) * calib.KVArrivalGap(),
			decode:  fmt.Sprintf("kv.decode%d", i),
		})
	}
	s.stats.Sessions = len(specs)
	return s
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats { return s.stats }

// TTFT is the time-to-first-token histogram (microseconds).
func (s *Server) TTFT() *metrics.Histogram { return s.ttft }

// StepLatency is the per-decode-step latency histogram (microseconds).
func (s *Server) StepLatency() *metrics.Histogram { return s.step }

// globalBlock maps a key to its SSD block id: sessions × layers × blocks
// laid out densely over the striped array.
func (s *Server) globalBlock(k Key) uint64 {
	return uint64((k.Session()*s.cfg.Layers+k.Layer())*s.perLayer + k.Block())
}

// frameOff is frame f's byte offset in the tier buffer.
func (s *Server) frameOff(f int32) int64 { return int64(f) * s.cfg.BlockBytes }

// Serve runs every session to completion (proc context).
func (s *Server) Serve(p *sim.Proc) {
	done := make([]*sim.Signal, len(s.sessions))
	for i := range s.sessions {
		ss := s.sessions[i]
		sig := s.env.E.NewSignal(fmt.Sprintf("kv.s%d", i))
		done[i] = sig
		s.env.E.Go(fmt.Sprintf("kv.s%d", i), func(sp *sim.Proc) {
			ss.run(sp)
			sig.Fire()
		})
	}
	for _, d := range done {
		if !d.Fired() {
			p.Wait(d)
		}
	}
	for _, ss := range s.sessions {
		if ss.end > s.stats.LastEnd {
			s.stats.LastEnd = ss.end
		}
	}
}

// kickFrames wakes every proc parked for tier capacity. Fire hands the
// waiter list off before it returns, so the signal re-arms at once and a
// proc that parks again while the woken ones are still queued waits for the
// next kick.
func (s *Server) kickFrames() {
	s.frameAvail.Fire()
	s.frameAvail.Reset()
}

// pending reports the transfer in flight over block k of map m, if any.
func (s *Server) pending(m *Map, k Key) *inflight {
	if st := m.State(k.Layer(), k.Block()); st != StateFilling && st != StateSpilling {
		return nil
	}
	return s.pend[m.Frame(k.Layer(), k.Block())]
}

// newInflight starts a record for a batch over keys, recycling an idle one.
func (s *Server) newInflight(keys []Key, fill bool) *inflight {
	f := s.idle.Get()
	f.issued.Init(s.env.E, "kv.issued")
	f.keys, f.fill = append(f.keys, keys...), fill
	return f
}

// cover publishes f as the transfer over k's frame and adds k to the batch.
func (s *Server) cover(f *inflight, k Key, frame int32) {
	f.ids = append(f.ids, s.globalBlock(k))
	f.offs = append(f.offs, s.frameOff(frame))
	s.pend[frame] = f
}

// reserveFrames appends n frames to out, evicting as needed. May block.
func (s *Server) reserveFrames(p *sim.Proc, n int, out []int32) []int32 {
	for len(out) < n {
		if f, ok := s.tier.TakeFree(); ok {
			out = append(out, f)
			continue
		}
		s.victims = s.tier.PickVictims(s.cfg.EvictBatch, s.victims[:0])
		if len(s.victims) == 0 {
			// Everything is pinned or in flight; park until a pin or a
			// transfer releases capacity.
			p.Wait(s.frameAvail)
			continue
		}
		s.evict(p, s.victims)
	}
	return out
}

// evict retires the picked victims: clean blocks drop immediately, dirty
// blocks spill in one batched list write. Runs in proc context and may
// block on the spill.
func (s *Server) evict(p *sim.Proc, victims []Key) {
	s.dirty = s.dirty[:0]
	for _, k := range victims {
		if s.tier.Dirty(s.tier.Frame(k)) {
			s.dirty = append(s.dirty, k)
			continue
		}
		s.maps[k.Session()].DropClean(k.Layer(), k.Block())
		s.tier.Remove(k)
		s.stats.CleanDrops++
	}
	if len(s.dirty) > 0 {
		spill := s.newInflight(s.dirty, false)
		for _, k := range s.dirty {
			s.maps[k.Session()].BeginSpill(k.Layer(), k.Block())
			f := s.tier.Frame(k)
			s.tier.SetBusy(f, true)
			s.cover(spill, k, f)
		}
		s.stats.Spills += uint64(len(s.dirty))
		spill.setHandle(s.lb.StartScatterList(p, spill.ids, s.buf, spill.offs))
		s.settle(p, spill)
	}
	s.kickFrames()
}

// settle waits out one batched transfer and applies its state
// transitions exactly once, no matter how many procs were waiting on it.
func (s *Server) settle(p *sim.Proc, f *inflight) {
	f.waiters++
	p.Wait(&f.issued)
	f.h.Wait(p)
	f.waiters--
	if !f.done { // else another waiter finalized while we slept
		f.done = true
		for _, k := range f.keys {
			frame := s.tier.Frame(k)
			s.pend[frame] = nil
			if f.fill {
				s.maps[k.Session()].EndFill(k.Layer(), k.Block())
				s.tier.SetBusy(frame, false)
			} else {
				s.maps[k.Session()].EndSpill(k.Layer(), k.Block())
				s.tier.Remove(k)
			}
		}
		s.kickFrames()
	}
	if f.waiters == 0 {
		// Nothing can reach a done record but the procs already in here.
		*f = inflight{keys: f.keys[:0], ids: f.ids[:0], offs: f.offs[:0]}
		s.idle.Put(f)
	}
}

// startFill reserves frames for the given spilled keys and issues one
// batched list gather covering all of them. Counted as fills; the caller
// decides whether they were misses or prefetches.
func (s *Server) startFill(p *sim.Proc, keys []Key, frames []int32) *inflight {
	fill := s.newInflight(keys, true)
	for i, k := range keys {
		s.maps[k.Session()].BeginFill(k.Layer(), k.Block(), frames[i])
		s.tier.Insert(k, frames[i], false, true)
		s.cover(fill, k, frames[i])
	}
	s.stats.Fills += uint64(len(keys))
	fill.setHandle(s.lb.StartGatherList(p, fill.ids, s.buf, fill.offs))
	return fill
}

// run plays one session: arrive, prefill, then decode with step-ahead
// prefetch (proc context).
func (ss *session) run(p *sim.Proc) {
	s := ss.srv
	cfg := &s.cfg
	if ss.arrival > 0 {
		p.Sleep(ss.arrival)
	}

	// Prefill: one big kernel over the prompt, then the prompt's KV
	// blocks come into existence layer-major per block. Sessions overlap,
	// so the kernel asks for half the device and can start on an eighth —
	// the elastic model then degrades a contended prefill gracefully
	// instead of collapsing a late arrival onto a single block.
	s.env.GPU.RunKernel(p, gpu.KernelSpec{
		Name:              fmt.Sprintf("kv.prefill%d", ss.id),
		Threads:           s.env.GPU.TotalThreads() / 2,
		MinThreads:        s.env.GPU.TotalThreads() / 8,
		FullOccupancyTime: s.env.GPU.ComputeTime(calib.KVPrefillFlops()*float64(ss.spec.Prompt), 0.6),
	})
	promptBlocks := (ss.spec.Prompt + cfg.BlockTokens - 1) / cfg.BlockTokens
	for b := 0; b < promptBlocks; b++ {
		for l := 0; l < cfg.Layers; l++ {
			ss.frames = s.reserveFrames(p, 1, ss.frames[:0])
			ss.create(l, b, ss.frames[0])
		}
	}

	// Decode loop.
	for t := 0; t < ss.spec.Decode; t++ {
		start := s.env.E.Now()
		ss.accessSet(t)
		ss.ensureResident(p)
		ss.attend()
		ss.unpinAll()
		if t+1 < ss.spec.Decode {
			ss.prefetch(p, t+1)
		}
		s.env.GPU.RunKernel(p, gpu.KernelSpec{
			Name:              ss.decode,
			Threads:           64 * 1024,
			MinThreads:        8 * 1024,
			FullOccupancyTime: s.env.GPU.ComputeTime(calib.KVDecodeFlops(), 0.2),
		})
		s.stats.DecodedTokens++
		// Crossing a block boundary grows every layer by one block.
		if (ss.spec.Prompt+t)%cfg.BlockTokens == 0 {
			nb := (ss.spec.Prompt + t) / cfg.BlockTokens
			for l := 0; l < cfg.Layers; l++ {
				ss.frames = s.reserveFrames(p, 1, ss.frames[:0])
				ss.create(l, nb, ss.frames[0])
			}
		}
		now := s.env.E.Now()
		s.step.Add((now - start).Micros())
		if t == 0 {
			s.ttft.Add((now - ss.arrival).Micros())
		}
	}
	ss.end = s.env.E.Now()
}

// create brings block (l, b) into existence in frame f: stamp the frame
// and register it dirty (no SSD copy yet).
func (ss *session) create(l, b int, f int32) {
	s := ss.srv
	k := MakeKey(ss.id, l, b)
	putStamp(ss.stamp[:], k, s.cfg.Seed)
	s.buf.Payload().WriteAt(ss.stamp[:], s.frameOff(f))
	s.tier.Insert(k, f, true, false)
	ss.m.Create(l, b, f)
}

// accessSet fills ss.need with step t's attended blocks: per layer, the
// recency window plus TopK sink-skewed older blocks. Pure function of
// (session, step, layer, seed) — the prefetcher reproduces it exactly.
func (ss *session) accessSet(t int) {
	cfg := &ss.srv.cfg
	ss.need = ss.need[:0]
	ctx := ss.spec.Prompt + t
	nb := (ctx + cfg.BlockTokens - 1) / cfg.BlockTokens
	for l := 0; l < cfg.Layers; l++ {
		w0 := nb - cfg.Window
		if w0 < 0 {
			w0 = 0
		}
		for b := w0; b < nb; b++ {
			ss.need = append(ss.need, MakeKey(ss.id, l, b))
		}
		if w0 == 0 || cfg.TopK == 0 {
			continue
		}
		// Sink-skewed sample over the older context: cubing the uniform
		// draw concentrates attention on early blocks, the way prompt
		// sinks stay hot across a decode.
		rng := sim.NewRNG(mix64(cfg.Seed ^ uint64(ss.id)<<40 ^ uint64(t)<<8 ^ uint64(l)))
		layerBase := len(ss.need) - (nb - w0)
		for k := 0; k < cfg.TopK; k++ {
			r := rng.Float64()
			b := int(r * r * r * float64(w0))
			if b >= w0 {
				b = w0 - 1
			}
			key := MakeKey(ss.id, l, b)
			dup := false
			for _, have := range ss.need[layerBase:] {
				if have == key {
					dup = true
					break
				}
			}
			if !dup {
				ss.need = append(ss.need, key)
			}
		}
	}
}

// ensureResident lands every needed block in the tier and pins it:
// settle covering transfers first (prefetches are consumed here), then
// one batched sync gather for whatever is still on SSD.
func (ss *session) ensureResident(p *sim.Proc) {
	s := ss.srv
	ss.fetch = ss.fetch[:0]
	ss.pins = ss.pins[:0]
	for _, k := range ss.need {
		if f := s.pending(ss.m, k); f != nil {
			fill := f.fill
			s.settle(p, f)
			if fill {
				// Prefetched and consumed: the read overlapped compute.
				s.stats.Prefetched++
				s.tier.Touch(k)
				s.pin(ss, k)
				continue
			}
			// The block was mid-spill; it is on SSD now, fetch it back.
		}
		switch ss.m.State(k.Layer(), k.Block()) {
		case StateResident:
			if s.tier.Touch(k) {
				s.stats.Prefetched++ // filled earlier this run, first use now
			} else {
				s.stats.Hits++
			}
			s.pin(ss, k)
		case StateSpilled:
			s.stats.Misses++
			ss.fetch = append(ss.fetch, k)
		default:
			panic(fmt.Sprintf("kvcache: %v in state %v at access", k, ss.m.State(k.Layer(), k.Block())))
		}
	}
	if len(ss.fetch) == 0 {
		return
	}
	ss.frames = s.reserveFrames(p, len(ss.fetch), ss.frames[:0])
	s.settle(p, s.startFill(p, ss.fetch, ss.frames))
	for _, k := range ss.fetch {
		s.tier.Touch(k)
		s.pin(ss, k)
	}
}

func (s *Server) pin(ss *session, k Key) {
	f := ss.m.Frame(k.Layer(), k.Block())
	s.tier.Pin(f)
	ss.pins = append(ss.pins, f)
}

// attend folds the working set's stamps into the session checksum, and
// the analytic expectation alongside. The fold walks ss.need (every
// needed key is pinned by now), never the pin list: pin order depends on
// which keys happened to miss, so folding it would make the checksum a
// function of tier timing instead of a pure function of the workload —
// the cross-backend and cross-fault comparisons need the latter.
func (ss *session) attend() {
	s := ss.srv
	for _, k := range ss.need {
		frame := ss.m.Frame(k.Layer(), k.Block())
		s.buf.Payload().ReadAt(ss.stamp[:], s.frameOff(frame))
		if err := checkStamp(ss.stamp[:], k, s.cfg.Seed); err != nil {
			// A wrong stamp at attend time is a data-plane bug (a transfer
			// landed in the wrong frame or completed early) — fail loudly
			// at the access, where the frame and state are still in hand.
			panic(fmt.Sprintf("kvcache: attend at %v: %v (frame %d, state %v)",
				s.env.E.Now(), err, frame, ss.m.State(k.Layer(), k.Block())))
		}
		ss.sum = accum(ss.sum, readSum(ss.stamp[:]))
		ss.expect = accum(ss.expect, stampSum(k, s.cfg.Seed))
	}
}

// unpinAll releases the step's pins and wakes any frame waiters.
func (ss *session) unpinAll() {
	s := ss.srv
	for _, f := range ss.pins {
		s.tier.Unpin(f)
	}
	if len(ss.pins) > 0 {
		s.kickFrames()
	}
	ss.pins = ss.pins[:0]
}

// prefetch issues one batched read for step t's access set ahead of
// time. Blocks already resident, in flight, or not yet created are
// skipped; the rest start filling while the decode kernel runs.
func (ss *session) prefetch(p *sim.Proc, t int) {
	s := ss.srv
	ss.accessSet(t)
	ss.fetch = ss.fetch[:0]
	for _, k := range ss.need {
		if ss.m.State(k.Layer(), k.Block()) == StateSpilled {
			ss.fetch = append(ss.fetch, k)
		}
	}
	if len(ss.fetch) == 0 {
		return
	}
	ss.frames = s.reserveFrames(p, len(ss.fetch), ss.frames[:0])
	s.startFill(p, ss.fetch, ss.frames)
}

// Verify audits the run end to end: bookkeeping invariants, per-session
// decoded-token checksums against the analytic expectation, and a final
// sweep reading every block's stamp back off whichever tier it ended on.
func (s *Server) Verify(p *sim.Proc) error {
	for f, fl := range s.pend {
		if fl != nil {
			return fmt.Errorf("kvcache: frame %d still under a transfer after serve", f)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	for _, ss := range s.sessions {
		if ss.sum != ss.expect {
			return fmt.Errorf("kvcache: session %d checksum %#x, expected %#x", ss.id, ss.sum, ss.expect)
		}
	}
	// Sweep the SSD-resident blocks in batches through a scratch buffer,
	// and the DRAM-resident ones in place.
	const sweepFrames = 32
	scratch := s.lb.Alloc("kv.verify", sweepFrames*s.cfg.BlockBytes)
	var stamp [stampBytes]byte
	var keys []Key
	var ids []uint64
	var offs []int64
	flush := func() error {
		if len(keys) == 0 {
			return nil
		}
		xfer.GatherList(p, s.lb, ids, scratch, offs)
		for i, k := range keys {
			scratch.Payload().ReadAt(stamp[:], offs[i])
			if err := checkStamp(stamp[:], k, s.cfg.Seed); err != nil {
				return err
			}
		}
		keys, ids, offs = keys[:0], ids[:0], offs[:0]
		return nil
	}
	for _, ss := range s.sessions {
		for l := 0; l < s.cfg.Layers; l++ {
			for b := 0; b < s.perLayer; b++ {
				k := MakeKey(ss.id, l, b)
				switch ss.m.State(l, b) {
				case StateUnwritten:
				case StateResident:
					s.buf.Payload().ReadAt(stamp[:], s.frameOff(s.tier.Frame(k)))
					if err := checkStamp(stamp[:], k, s.cfg.Seed); err != nil {
						return err
					}
				case StateSpilled:
					offs = append(offs, int64(len(keys))*s.cfg.BlockBytes)
					keys = append(keys, k)
					ids = append(ids, s.globalBlock(k))
					if len(keys) == sweepFrames {
						if err := flush(); err != nil {
							return err
						}
					}
				default:
					return fmt.Errorf("kvcache: %v still %v after serve", k, ss.m.State(l, b))
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	scratch.Free()
	return nil
}

// CheckInvariants cross-audits the maps against the tier: internal
// consistency of each, plus exact agreement on who holds which frame.
func (s *Server) CheckInvariants() error {
	if err := s.tier.CheckInvariants(); err != nil {
		return err
	}
	resident := 0
	for i, m := range s.maps {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		for l := 0; l < m.Layers(); l++ {
			for b := 0; b < m.PerLayer(); b++ {
				k := MakeKey(i, l, b)
				st := m.State(l, b)
				holds := st == StateResident || st == StateFilling || st == StateSpilling
				if holds != s.tier.Holds(k) {
					return fmt.Errorf("kvcache: %v is %v but tier holds=%v", k, st, s.tier.Holds(k))
				}
				if holds {
					resident++
					if got := s.tier.Frame(k); got != m.Frame(l, b) {
						return fmt.Errorf("kvcache: %v frame %d in map, %d in tier", k, m.Frame(l, b), got)
					}
					busy := st == StateFilling || st == StateSpilling
					if busy != s.tier.Busy(m.Frame(l, b)) {
						return fmt.Errorf("kvcache: %v is %v but tier busy=%v", k, st, !busy)
					}
				}
			}
		}
	}
	if resident != s.tier.Resident() {
		return fmt.Errorf("kvcache: maps hold %d frames, tier %d", resident, s.tier.Resident())
	}
	return nil
}

// SessionChecksum reports session i's (actual, expected) decoded-token
// checksums — chaos tests compare these across replays.
func (s *Server) SessionChecksum(i int) (sum, expect uint64) {
	return s.sessions[i].sum, s.sessions[i].expect
}
