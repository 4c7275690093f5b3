// Package bam models BaM (Big Accelerator Memory, ASPLOS 2023), the
// state-of-the-art GPU-initiated, GPU-managed SSD baseline the paper
// compares against.
//
// In BaM the NVMe queue pairs live in GPU memory and GPU thread blocks
// submit SQEs and spin-poll CQs through a synchronous array interface.
// Saturating an SSD's latency-bandwidth product this way requires a large
// population of resident GPU threads that are idle-waiting most of the
// time; this package reproduces that cost by pinning the calibrated thread
// count on the gpu.GPU thread-slot resource for the duration of every I/O
// batch. With the paper's twelve SSDs, the pin covers every SM on the
// device, so compute kernels queue behind I/O — the serial execution of
// the paper's Issue 3 falls out of the model rather than being scripted.
package bam

import (
	"fmt"
	"slices"

	"camsim/internal/calib"
	"camsim/internal/gpu"
	"camsim/internal/gpucache"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

// Config calibrates the BaM baseline. The resident GPU threads it pins per
// SSD, calib.BaMThreadsPerSSD, land both of the paper's Fig 4 observations
// (five or more SSDs need every SM of an A100); the GPU-side cost to publish
// one SQE is calib.BaMSubmitLatency. One queue pair per device saturates the
// simulated frontend, where the paper's evaluation uses 128.
type Config struct {
	// QueueDepth bounds in-flight commands per queue pair.
	QueueDepth uint32

	// CmdTimeout is the per-command completion deadline for the GPU
	// pollers; 0 (the default) disables timeout handling entirely. New
	// sets it to calib.RecoveryDeadline when it is 0 and some device the
	// system drives carries a fault injector. BaM has no retry path — the
	// polling warps spin on CQs with no management thread to re-drive a
	// command — so a timed-out command just counts its blocks as failed.
	// The CPU-managed design recovers instead (see internal/spdk); the
	// asymmetry is the point of the comparison.
	CmdTimeout sim.Time
}

// DefaultConfig matches the paper's BaM evaluation settings.
func DefaultConfig() Config {
	return Config{QueueDepth: calib.BaMQueueDepth()}
}

// Stats counts BaM-side error handling.
type Stats struct {
	Timeouts     uint64 // commands abandoned after CmdTimeout
	FailedBlocks uint64 // blocks whose command completed with an error
}

// System is a BaM instance: GPU-resident queue pairs over a set of SSDs.
type System struct {
	e    *sim.Engine
	cfg  Config
	g    *gpu.GPU
	devs []*ssd.Device
	qps  []*nvme.QueuePair // one per device (first queue of each set)

	slots []*sim.Resource
	// tags holds, per device, each in-flight command's batch by CID, with
	// its deadline when CmdTimeout is armed.
	tags []nvme.Tags[*batchMachine]
	// pollers are the per-device completion state machines.
	pollers []*devPoll
	// batchFree recycles batch state machines; syncFree recycles the
	// signal adapters the synchronous wrappers park on.
	batchFree sim.FreeList[batchMachine]
	syncFree  sim.FreeList[syncSink]

	stats Stats
}

// Stats returns a snapshot of the error-handling counters.
func (s *System) Stats() Stats { return s.stats }

// New builds the system; queue rings are allocated in GPU memory, which is
// BaM's defining data-plane property.
func New(e *sim.Engine, cfg Config, g *gpu.GPU, devs []*ssd.Device) *System {
	if len(devs) == 0 {
		panic("bam: no devices")
	}
	s := &System{e: e, cfg: cfg, g: g, devs: devs}
	for i, d := range devs {
		if d.Injector() != nil && s.cfg.CmdTimeout == 0 {
			s.cfg.CmdTimeout = calib.RecoveryDeadline()
		}
		sqMem := g.Alloc(fmt.Sprintf("bam.sq%d", i), int64(cfg.QueueDepth)*nvme.SQESize)
		cqMem := g.Alloc(fmt.Sprintf("bam.cq%d", i), int64(cfg.QueueDepth)*nvme.CQESize)
		// Ring memory is marshalled into and parsed continuously — eager.
		qp := d.CreateQueuePair("bam", sqMem.MakeEager(), cqMem.MakeEager(), cfg.QueueDepth)
		s.qps = append(s.qps, qp)
		s.slots = append(s.slots, e.NewResource(fmt.Sprintf("bam.slots%d", i), int64(cfg.QueueDepth)-1))
		s.tags = append(s.tags, nvme.NewTags[*batchMachine](cfg.QueueDepth))
		// One completion-delivery state machine per device (stands in for
		// the per-warp pollers whose thread cost is modeled by PinThreads).
		poll := &devPoll{s: s, dev: i}
		poll.wait.Init(e, poll)
		s.pollers = append(s.pollers, poll)
		e.ScheduleCallback(0, poll)
	}
	return s
}

// ThreadsNeeded reports the resident GPU threads BaM pins to saturate n
// SSDs (clamped to the device).
func (s *System) ThreadsNeeded(n int) int64 {
	t := calib.BaMThreadsPerSSD() * int64(n)
	if t > s.g.TotalThreads() {
		t = s.g.TotalThreads()
	}
	return t
}

// SMUtilizationFor reports the fraction of the GPU BaM occupies to saturate
// n SSDs — the paper's Figure 4.
func (s *System) SMUtilizationFor(n int) float64 {
	return float64(s.ThreadsNeeded(n)) / float64(s.g.TotalThreads())
}

// Array is the bam::array-style synchronous view: fixed-size blocks striped
// round-robin across all SSDs, optionally fronted by BaM's GPU-memory
// software cache.
type Array struct {
	s          *System
	BlockBytes int64
	cache      *gpucache.Cache
	// CacheHitCost is the GPU time to serve one block from the cache.
	CacheHitCost sim.Time
}

// AttachCache fronts the array with a GPU-memory cache (line size must
// match the block size). Gathers serve hits from GPU memory without
// touching the SSDs; scatters invalidate.
func (a *Array) AttachCache(c *gpucache.Cache) {
	if c.LineBytes() != a.BlockBytes {
		panic("bam: cache line size must equal array block size")
	}
	a.cache = c
	if a.CacheHitCost == 0 {
		a.CacheHitCost = 250 * sim.Nanosecond
	}
}

// NewArray creates an array view with the given block size (the paper's
// access granularity, 512 B–64 KiB).
func (s *System) NewArray(blockBytes int64) *Array {
	if blockBytes%nvme.LBASize != 0 || blockBytes <= 0 {
		panic("bam: block size must be a positive multiple of 512")
	}
	return &Array{s: s, BlockBytes: blockBytes}
}

// locate maps a block id to its device and device LBA.
func (a *Array) locate(block uint64) (dev int, lba uint64) {
	n := uint64(len(a.s.devs))
	dev = int(block % n)
	lba = (block / n) * uint64(a.BlockBytes/nvme.LBASize)
	return
}

// Gather synchronously reads the given blocks into dst (block i of the
// batch lands at offset i*BlockBytes) and reports how many blocks failed
// (0 when every command succeeded). The calling kernel's I/O warps pin
// ThreadsNeeded(len(devs)) thread slots for the whole batch — if the GPU is
// busy, the batch waits; while the batch runs, compute kernels starve.
func (a *Array) Gather(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, dstOff int64) int {
	return a.batch(p, nvme.OpRead, blocks, dst, dstOff)
}

// Scatter synchronously writes the given blocks from src, reporting the
// failed-block count.
func (a *Array) Scatter(p *sim.Proc, blocks []uint64, src *gpu.Buffer, srcOff int64) int {
	return a.batch(p, nvme.OpWrite, blocks, src, srcOff)
}

// batch runs the synchronous array access by driving the asynchronous
// batch machine and parking the caller on its completion.
func (a *Array) batch(p *sim.Proc, op nvme.Opcode, blocks []uint64, buf *gpu.Buffer, off int64) int {
	if len(blocks) == 0 {
		return 0
	}
	s := a.s
	ss := s.syncFree.Get()
	ss.done.Init(s.e, "bam.sync")
	a.Start(op, blocks, buf, off, nil, ss)
	p.Wait(&ss.done)
	errs := ss.errs
	s.syncFree.Put(ss)
	return errs
}

// BatchSink receives a batch's failed-block count when it completes
// (engine-callback context).
type BatchSink interface {
	BatchDone(errs int)
}

// syncSink adapts BatchSink to a signal for the synchronous wrappers.
type syncSink struct {
	errs int
	done sim.Signal
}

func (ss *syncSink) BatchDone(errs int) {
	ss.errs = errs
	ss.done.Fire()
}

// batchMachine phases (the bmLoop scan resumes directly in Run's default
// arm).
const (
	bmLoop     uint8 = iota // scanning blocks / between submissions
	bmGranted               // queue slot granted for block i
	bmHitSlept              // cache-hit service time slept
	bmDone                  // every command completed; finish the batch
)

// batchMachine runs one Gather/Scatter as a callback state machine: pin the
// I/O warps, walk the block list submitting one command per block (each
// submission sleeps the warp-serialized doorbell cost), sleep accumulated
// cache-hit time, then wait out the commands in flight. Every submitted
// command points back to the machine through the tag table, and the last
// to complete resumes it: one event per batch, not one per block.
type batchMachine struct {
	a  *Array
	op nvme.Opcode
	// blocks and offs (block i's offset inside buf) are the machine's own
	// copies, taken at Start; their capacity is retained across reuse.
	blocks []uint64
	offs   []int64
	buf    *gpu.Buffer
	sink   BatchSink
	// remaining counts the commands in flight, plus the publishing hold
	// while blocks are still being submitted; failed counts the commands
	// that completed with an error or timed out.
	remaining int
	failed    int
	held      int64
	phase     uint8
	i         int
	hitTime   sim.Time
	missIdx   []int
}

// Start is the callback-machine form of Gather (op nvme.OpRead) and Scatter
// (nvme.OpWrite): the sink runs once every block is resident (or failed).
// Block i moves to or from buf offset off + i*BlockBytes, or offs[i] when
// offs is non-nil. The machine copies the ids and offsets, so both slices
// are the caller's again as soon as Start returns. Empty batches complete
// inline.
func (a *Array) Start(op nvme.Opcode, blocks []uint64, buf *gpu.Buffer, off int64, offs []int64, sink BatchSink) {
	if offs != nil {
		buf.CheckBlocks(len(blocks), offs, a.BlockBytes)
	}
	if len(blocks) == 0 {
		sink.BatchDone(0)
		return
	}
	s := a.s
	m := s.batchFree.Get()
	m.a, m.op, m.buf, m.sink = a, op, buf, sink
	m.blocks = append(m.blocks[:0], blocks...)
	// A list's offsets are copied; a range's are its stride, filled in.
	m.offs = append(slices.Grow(m.offs[:0], len(blocks)), offs...)
	for i := len(offs); i < len(blocks); i++ {
		m.offs = append(m.offs, off+int64(i)*a.BlockBytes)
	}
	// Hold the count above zero until every command is submitted:
	// submission can block on queue slots, so early completions may race
	// the rest of the batch.
	m.remaining, m.failed = 1, 0
	m.phase = bmLoop
	// Pin the I/O warps, then run.
	held, ok := s.g.PinThreadsCallback(s.ThreadsNeeded(len(s.devs)), m)
	m.held = held
	if ok {
		m.Run()
	}
}

// Run advances the batch one phase (engine-callback context).
func (m *batchMachine) Run() {
	a := m.a
	s := a.s
	switch m.phase {
	case bmGranted:
		m.push()
		return
	case bmHitSlept:
		m.awaitCommands()
		return
	case bmDone:
		m.finish()
		return
	}
	// bmLoop: resume the block scan.
	for m.i < len(m.blocks) {
		i := m.i
		b := m.blocks[i]
		if a.cache != nil && m.op == nvme.OpRead {
			if lineOff, hit := a.cache.LookupRef(b); hit {
				mem.PayloadCopy(m.buf.Payload(), m.offs[i],
					a.cache.Payload(), lineOff, a.BlockBytes)
				m.hitTime += a.CacheHitCost
				m.i++
				continue
			}
			m.missIdx = append(m.missIdx, i)
		}
		if a.cache != nil && m.op == nvme.OpWrite {
			a.cache.Invalidate(b)
		}
		dev, _ := a.locate(b)
		m.phase = bmGranted
		if !s.slots[dev].AcquireCallback(1, m) {
			return
		}
		m.push()
		return
	}
	// Scan complete: serve the accumulated cache-hit time, then wait out
	// the in-flight commands.
	if m.hitTime > 0 {
		m.phase = bmHitSlept
		t := m.hitTime
		m.hitTime = 0
		s.e.ScheduleCallback(t, m)
		return
	}
	m.awaitCommands()
}

// push publishes block i's command (queue slot already held) and sleeps the
// warp-serialized submission cost before resuming the scan.
func (m *batchMachine) push() {
	a := m.a
	s := a.s
	dev, lba := a.locate(m.blocks[m.i])
	var deadline sim.Time
	if s.cfg.CmdTimeout > 0 {
		deadline = s.e.Now() + s.cfg.CmdTimeout
	}
	cid := s.tags[dev].Alloc(m, deadline)
	m.remaining++
	sqe := nvme.SQE{Opcode: m.op, CID: cid, NSID: 1, PRP1: uint64(m.buf.Addr + mem.Addr(m.offs[m.i])),
		SLBA: lba, NLB: uint32(a.BlockBytes / nvme.LBASize)}
	if err := s.qps[dev].SQ.Push(sqe); err != nil {
		panic("bam: SQ overflow despite slot limiter: " + err.Error())
	}
	s.devs[dev].Ring(s.qps[dev])
	if s.cfg.CmdTimeout > 0 {
		// A poller parked on a plain Wait before this command was armed
		// would sleep through its deadline if the device silently drops
		// it (no CQE ever fires OnPost). Nudge it so it re-arms its
		// sleep against the new deadline.
		s.qps[dev].CQ.OnPost.Fire()
	}
	m.i++
	m.phase = bmLoop
	// Warp-serialized submission cost; amortized across the batch by
	// submitting from many warps in reality — charge a fraction.
	s.e.ScheduleCallback(calib.BaMSubmitLatency()/8, m)
}

// awaitCommands drops the publishing hold; the last command to complete
// resumes the machine in bmDone.
func (m *batchMachine) awaitCommands() {
	m.phase = bmDone
	m.release()
}

// release drops one hold; the last schedules the machine's finish.
func (m *batchMachine) release() {
	if m.remaining--; m.remaining == 0 {
		m.a.s.e.ScheduleCallback(0, m)
	}
}

// finish fills the cache, releases resources, and reports to the sink.
func (m *batchMachine) finish() {
	a := m.a
	s := a.s
	errs := m.failed
	// Fill the cache with the freshly fetched blocks. With any failures
	// the batch's data is suspect — do not cache possibly-bad lines.
	if a.cache != nil && m.op == nvme.OpRead && errs == 0 {
		for _, i := range m.missIdx {
			lineOff := a.cache.InsertRef(m.blocks[i])
			mem.PayloadCopy(a.cache.Payload(), lineOff,
				m.buf.Payload(), m.offs[i], a.BlockBytes)
		}
	}
	if m.held > 0 {
		s.g.UnpinThreads(m.held)
	}
	sink := m.sink
	m.a, m.buf, m.sink = nil, nil, nil
	m.missIdx = m.missIdx[:0]
	m.i, m.hitTime, m.held = 0, 0, 0
	s.batchFree.Put(m)
	sink.BatchDone(errs)
}

// devPoll is one device's completion poller as an engine-callback state
// machine (it used to be a process): it folds arriving CQEs into their
// batches, counting failed commands into the batch error tally, and — when
// CmdTimeout is armed — abandons commands whose deadline passed so a lost
// command fails the batch instead of hanging it. Each OnPost wake is a
// direct call instead of a goroutine rendezvous.
type devPoll struct {
	s    *System
	dev  int
	wait sim.DeadlineWait // the OnPost park, bounded by NextDeadline
}

// NextDeadline is the earliest armed deadline in flight (sim.Deadliner).
func (c *devPoll) NextDeadline() sim.Time { return c.s.tags[c.dev].Earliest() }

// Run drains completions and expirations until there is nothing immediate,
// then parks on OnPost, bounded by the earliest armed deadline. It is
// re-entered by an OnPost fire or a due deadline (and runs once at
// startup).
func (c *devPoll) Run() {
	s, dev := c.s, c.dev
	qp := s.qps[dev]
	for {
		cqe, ok := qp.CQ.Poll()
		if ok {
			m := s.tags[dev].Free(cqe.CID)
			if cqe.Status != nvme.StatusSuccess {
				m.failed++
				s.stats.FailedBlocks++
			}
			s.slots[dev].Release(1)
			m.release()
			continue
		}
		if s.cfg.CmdTimeout > 0 && s.expire(dev) {
			continue
		}
		if !qp.CQ.OnPost.Fired() {
			next := s.tags[dev].Earliest()
			if next > 0 && next <= s.e.Now() {
				continue // deadline already due; expire on the next pass
			}
			c.wait.Park(qp.CQ.OnPost, next)
			return
		}
		qp.CQ.OnPost.Reset()
	}
}

// expire abandons commands on dev whose deadline passed: the device-side
// abort suppresses any late CQE, the blocks count as failed, and the batch
// completes instead of hanging. Reports whether anything expired.
func (s *System) expire(dev int) bool {
	now := s.e.Now()
	tags := &s.tags[dev]
	progressed := false
	for from := 0; ; {
		cid, m, due := tags.NextDue(from, now)
		if !due {
			return progressed
		}
		from = int(cid) + 1
		if s.devs[dev].Abort(s.qps[dev], cid) == ssd.AbortNotFound {
			continue // CQE already posted; the poll loop reaps it
		}
		s.stats.Timeouts++
		s.stats.FailedBlocks++
		m.failed++
		tags.Free(cid)
		s.slots[dev].Release(1)
		m.release()
		progressed = true
	}
}
