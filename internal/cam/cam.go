// Package cam implements the paper's contribution: CAM, asynchronous
// GPU-initiated, CPU-managed SSD management for batching storage access.
//
// Control plane: GPU kernels publish batches of logical block addresses
// into CPU-visible memory and ring a flag; a CPU polling thread discovers
// them, fans the blocks out to SPDK-style per-SSD reactor threads, and
// signals completion back through GPU memory. The GPU spends no streaming
// multiprocessor on I/O — its kernels keep every SM for compute while
// batches are in flight.
//
// Data plane: NVMe commands carry pinned GPU memory physical addresses
// (the GDRCopy / nvidia_p2p_get_pages path), so payloads move SSD⇄GPU
// directly over PCIe without crossing host DRAM.
//
// The GPU⇄CPU handshake uses the paper's four memory regions, §III-B:
//
//	region 1 — array of logical blocks to process     (unified, GPU writes)
//	region 2 — batch arguments                        (unified, GPU writes)
//	region 3 — doorbell: GPU finished publishing      (unified, GPU writes)
//	region 4 — completion: CPU processed all requests (GPU memory, CPU writes)
//
// The regions hold real encoded bytes and the CPU side decodes them, so the
// handshake is exercised end to end, not just signaled.
package cam

import (
	"encoding/binary"
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/cpustat"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/ssd"
)

// Config tunes a CAM instance. The CPU polling thread's latency to notice a
// doorbell and the GPU's to notice the region-4 write are calib rows
// (CAMPollPickup, CAMGPUPickup).
type Config struct {
	// BlockBytes is the access granularity: every logical block in a
	// batch moves this many bytes (512 B – 128 KiB).
	BlockBytes int64
	// MaxBatch is the largest number of blocks per prefetch/write_back.
	MaxBatch int
	// MaxOutstanding is how many published batches may be in flight at
	// once (the descriptor ring size).
	MaxOutstanding int

	// Backend configures the reactor threads' queue pairs and recovery.
	Backend spdk.Config

	// DynamicCores enables the paper's dynamic core adjustment: the
	// reactor count floats between N/4 and N/2 for N SSDs, rounded up,
	// based on the measured compute/I-O overlap. When false, Cores
	// reactors are used.
	DynamicCores bool
	// Cores is the fixed reactor count when DynamicCores is false
	// (default: one per two SSDs, the paper's lossless ratio).
	Cores int
	// AdjustPeriod is the number of completed batches between dynamic
	// adjustment decisions.
	AdjustPeriod int
}

// DefaultConfig returns the paper's settings for n SSDs.
func DefaultConfig(n int) Config {
	return Config{
		BlockBytes:     4096,
		MaxBatch:       16384,
		MaxOutstanding: 8,
		Backend:        spdk.DefaultConfig(),
		DynamicCores:   false,
		Cores:          (n + 1) / 2,
		AdjustPeriod:   4,
	}
}

// Op selects the batch direction.
type Op uint8

// Batch directions.
const (
	OpPrefetch  Op = 1 // SSD → GPU
	OpWriteBack Op = 2 // GPU → SSD
)

func (o Op) String() string {
	switch o {
	case OpPrefetch:
		return "prefetch"
	case OpWriteBack:
		return "write_back"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Batch is one published prefetch/write_back: the CAM-Async handle. Batches
// are carved from the manager's slab and never recycled: callers read OK and
// Errors long after Synchronize.
type Batch struct {
	Seq   uint64
	Op    Op
	Count int

	m    *Manager
	done sim.Signal
	slot int
	// indexed marks a list batch: region 1 carries (block, buffer offset)
	// pairs instead of a bare LBA array, so each block names its own
	// destination inside the batch buffer.
	indexed bool

	published sim.Time
	completed sim.Time
	// io is the batch's NVMe commands; its Failed is the batch's errors.
	io spdk.Batch
}

// Run fires the batch's completion signal; the manager schedules the batch
// itself as the region-4 pickup callback to avoid boxing a closure.
func (b *Batch) Run() { b.done.Fire() }

// Errors reports how many of the batch's block requests completed with a
// non-success NVMe status (valid once the batch is done).
func (b *Batch) Errors() int { return b.io.Failed }

// OK reports whether every request in the batch succeeded.
func (b *Batch) OK() bool { return b.io.Failed == 0 }

// Wait blocks p until the batch completes, as its manager's Synchronize
// does; it makes a *Batch the handle package xfer deals in. Like every xfer
// handle, it panics on a batch that lost blocks rather than hand its buffer
// back as if it were filled; Synchronize, Errors and OK report losses as
// data instead.
func (b *Batch) Wait(p *sim.Proc) {
	b.m.synchronize(p, b)
	if b.io.Failed > 0 {
		panic(fmt.Sprintf("xfer(cam): %d of %d blocks failed; the driver's retries did not recover them", b.io.Failed, b.Count))
	}
}

// Latency reports publish-to-completion time (valid after completion).
func (b *Batch) Latency() sim.Time { return b.completed - b.published }

// Stats aggregates manager-level counters.
type Stats struct {
	Batches        uint64
	Requests       uint64 // logical blocks processed
	Commands       uint64 // NVMe commands issued (one per block)
	FailedRequests uint64
	FailedBatches  uint64 // batches that completed with >= 1 failed block
	BytesRead      int64  // bytes of the read blocks that succeeded
	BytesWritten   int64  // bytes of the written blocks that succeeded
	CoreAdjustUp   uint64
	CoreAdjustDown uint64
}

// Manager is one CAM instance (the CAM_init result).
type Manager struct {
	e     *sim.Engine
	cfg   Config
	g     *gpu.GPU
	hm    *hostmem.Memory
	space *mem.Space
	fab   *pcie.Fabric
	devs  []*ssd.Device
	drv   *spdk.Driver

	// The four sync regions (see package comment).
	region1 *hostmem.Buffer // LBA arrays, MaxOutstanding slots
	region2 *hostmem.Buffer // args, 32 B per slot
	region3 *hostmem.Buffer // doorbell sequence number
	region4 *gpu.Buffer     // completion sequence number (GPU memory)
	// The regions are control state, not DMA payload: the handshake reads
	// and writes individual words, so they stay eagerly materialized and
	// the backing slices are cached once at construction.
	r1, r2, r3, r4 []byte

	doorbell *sim.Signal // polling thread wake (models region-3 poll)
	poller   *pollStep   // the polling-thread state machine
	// fireDoorbell is the doorbell's Fire bound once, so publish schedules
	// it without allocating a method value per batch.
	fireDoorbell func()
	batchQ       *sim.Store[*Batch]
	slotRes      *sim.Resource // outstanding-batch limiter
	// freeSlots is the region-1/2 slot free ring, FIFO: slotPop and
	// slotPush count pops and pushes and index it modulo MaxOutstanding,
	// so releasing a slot never grows the backing array.
	freeSlots         []int
	slotPop, slotPush uint

	// batches carves Batch records; lists holds the rare publish that had to
	// wait for a slot and so works from its own copy of the caller's slices.
	batches sim.FreeList[Batch]
	lists   sim.FreeList[listCopy]

	seq       uint64
	lastRead  *Batch
	lastWrite *Batch

	// activeCores floats between minCores and maxCores under DynamicCores.
	activeCores        int
	minCores, maxCores int
	inFlight           int
	overlap            *metrics.Overlap

	// busy/idle integration for dynamic adjustment
	busyAccum  sim.Time
	idleAccum  sim.Time
	lastChange sim.Time
	sinceAdj   int

	stats Stats
}

// r1EntryBytes is the region-1 encoding size per block: the block id, plus
// its buffer offset in a list batch.
func r1EntryBytes(indexed bool) int64 {
	if indexed {
		return 16
	}
	return 8
}

// argsSlotBytes is the region-2 encoding size per slot: op(1) pad(7)
// count(8) destAddr(8) blockBytes(8).
const argsSlotBytes = 32

// New initializes CAM (the CAM_init analogue): allocates the four sync
// regions, builds the SPDK-style backend with one queue pair per SSD, and
// launches the polling thread and reactors.
func New(e *sim.Engine, cfg Config, g *gpu.GPU, hm *hostmem.Memory, space *mem.Space,
	fab *pcie.Fabric, devs []*ssd.Device) *Manager {
	if len(devs) == 0 {
		panic("cam: no devices")
	}
	if cfg.BlockBytes <= 0 || cfg.BlockBytes%nvme.LBASize != 0 || cfg.BlockBytes > spdk.MaxTransfer() {
		panic("cam: BlockBytes must be a multiple of 512 up to MDTS")
	}
	if cfg.MaxBatch <= 0 || cfg.MaxOutstanding <= 0 {
		panic("cam: MaxBatch and MaxOutstanding must be positive")
	}
	minCores, maxCores := (len(devs)+3)/4, (len(devs)+1)/2
	if cfg.Cores <= 0 {
		cfg.Cores = maxCores
	}
	reactors := cfg.Cores
	if cfg.DynamicCores && maxCores > reactors {
		reactors = maxCores
	}
	if reactors > len(devs) {
		reactors = len(devs)
	}
	m := &Manager{
		e:     e,
		cfg:   cfg,
		g:     g,
		hm:    hm,
		space: space,
		fab:   fab,
		devs:  devs,
		drv:   spdk.New(e, cfg.Backend, hm, space, devs, reactors),

		minCores: minCores,
		maxCores: maxCores,

		region1: hm.Alloc("cam.region1", int64(cfg.MaxOutstanding)*int64(cfg.MaxBatch)*8),
		region2: hm.Alloc("cam.region2", int64(cfg.MaxOutstanding)*argsSlotBytes),
		region3: hm.Alloc("cam.region3", 8),
		region4: g.AllocPinned("cam.region4", 8),

		doorbell: e.NewSignal("cam.doorbell"),
		batchQ:   sim.NewStore[*Batch](e, "cam.batches"),
		slotRes:  e.NewResource("cam.slots", int64(cfg.MaxOutstanding)),
	}
	m.r1 = m.region1.MakeEager()
	m.r2 = m.region2.MakeEager()
	m.r3 = m.region3.MakeEager()
	m.r4 = m.region4.MakeEager()
	m.fireDoorbell = m.doorbell.Fire
	for i := 0; i < cfg.MaxOutstanding; i++ {
		m.freeSlots = append(m.freeSlots, i)
	}
	m.slotPush = uint(cfg.MaxOutstanding)
	m.activeCores = reactors
	start := cfg.Cores
	if cfg.DynamicCores {
		start = maxCores
	}
	if start > len(devs) {
		start = len(devs)
	}
	if start != reactors {
		m.drv.SetActiveReactors(start)
		m.activeCores = start
	}
	m.drv.Start()
	// The polling thread is a callback state machine: it parks on the
	// doorbell and drains the batch queue whenever it rings (no goroutine).
	m.poller = &pollStep{m: m}
	m.lastChange = e.Now()
	m.doorbell.WaitCallback(0, m.poller)
	return m
}

// BlockBytes reports the configured access granularity.
func (m *Manager) BlockBytes() int64 { return m.cfg.BlockBytes }

// SetOverlap attaches an I/O-compute overlap meter that every batch marks
// from publish to completion (nil detaches it).
func (m *Manager) SetOverlap(o *metrics.Overlap) { m.overlap = o }

// ActiveCores reports the reactor threads currently managing SSDs (the
// polling thread is additional and not counted, matching §IV-H).
func (m *Manager) ActiveCores() int { return m.activeCores }

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats { return m.stats }

// BackendStats returns the merged reactor CPU counters (Fig 13).
func (m *Manager) BackendStats() cpustat.Counters { return m.drv.Stats() }

// Driver exposes the backend for instrumentation.
func (m *Manager) Driver() *spdk.Driver { return m.drv }

// Alloc reserves pinned GPU memory reachable by SSD DMA (CAM_alloc).
func (m *Manager) Alloc(name string, n int64) *gpu.Buffer {
	return m.g.AllocPinned(name, n)
}

// Free releases a CAM_alloc'd buffer (CAM_free).
func (m *Manager) Free(b *gpu.Buffer) { b.Free() }

// locate maps a global block id to its device and device LBA: blocks are
// striped round-robin across SSDs.
func (m *Manager) locate(block uint64) (dev int, lba uint64) {
	n := uint64(len(m.devs))
	dev = int(block % n)
	lba = (block / n) * uint64(m.cfg.BlockBytes/nvme.LBASize)
	return
}

// CapacityBlocks reports how many striped blocks the array holds.
func (m *Manager) CapacityBlocks() uint64 {
	perDev := uint64(m.devs[0].Config().CapacityBytes / m.cfg.BlockBytes)
	return perDev * uint64(len(m.devs))
}

// Prefetch publishes an asynchronous SSD→GPU batch: block i of blocks
// lands at dst.Data[dstOff + i*BlockBytes]. It returns immediately with
// the batch handle (CAM-Async); PrefetchSynchronize provides the paper's
// synchronous-feeling wrapper. dst must come from Alloc (pinned).
//
// Only the leading GPU thread does work here: it writes the LBA array and
// arguments into CPU-visible memory and raises the doorbell — no SQE
// construction, no polling, no SM occupancy.
func (m *Manager) Prefetch(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, dstOff int64) *Batch {
	b := m.publish(p, OpPrefetch, blocks, dst, dstOff, nil)
	m.lastRead = b
	return b
}

// WriteBack publishes an asynchronous GPU→SSD batch: block i is taken from
// src.Data[srcOff + i*BlockBytes].
func (m *Manager) WriteBack(p *sim.Proc, blocks []uint64, src *gpu.Buffer, srcOff int64) *Batch {
	b := m.publish(p, OpWriteBack, blocks, src, srcOff, nil)
	m.lastWrite = b
	return b
}

// PrefetchList publishes an asynchronous SSD→GPU batch with explicit
// per-block destinations: block blocks[i] lands at dst.Data[offs[i]].
// Region 1 carries (block, offset) pairs — 16 bytes per entry instead of
// 8 — so a list batch holds at most MaxBatch/2 blocks and its publish
// cost doubles per block; in exchange one batch fills an arbitrary set of
// cache frames, which is what keeps an importance-ordered eviction/fill
// working set on the single-doorbell path (DESIGN.md §11).
func (m *Manager) PrefetchList(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, offs []int64) *Batch {
	b := m.publish(p, OpPrefetch, blocks, dst, 0, offs)
	m.lastRead = b
	return b
}

// WriteBackList publishes an asynchronous GPU→SSD batch with explicit
// per-block sources: block blocks[i] is taken from src.Data[offs[i]].
func (m *Manager) WriteBackList(p *sim.Proc, blocks []uint64, src *gpu.Buffer, offs []int64) *Batch {
	b := m.publish(p, OpWriteBack, blocks, src, 0, offs)
	m.lastWrite = b
	return b
}

// PrefetchSynchronize blocks until the most recent Prefetch completes
// (no-op if none is outstanding). This is the paper's
// prefetch_synchronize: all kernel threads block on the leading thread's
// poll of region 4.
func (m *Manager) PrefetchSynchronize(p *sim.Proc) {
	m.synchronize(p, m.lastRead)
}

// WriteBackSynchronize blocks until the most recent WriteBack completes.
func (m *Manager) WriteBackSynchronize(p *sim.Proc) {
	m.synchronize(p, m.lastWrite)
}

// Synchronize blocks until a specific batch completes (CAM-Async API).
func (m *Manager) Synchronize(p *sim.Proc, b *Batch) { m.synchronize(p, b) }

func (m *Manager) synchronize(p *sim.Proc, b *Batch) {
	if b == nil {
		return
	}
	p.Wait(&b.done)
	// Leading thread notices the region-4 write on its next poll.
	p.Sleep(calib.CAMGPUPickup())
	if got := binary.LittleEndian.Uint64(m.r4); got < b.Seq {
		panic("cam: region-4 sequence behind completed batch")
	}
}

// publish is the GPU-side half of the handshake, the one path every batch
// takes. Block i sits at buf offset off + i*BlockBytes, or at offs[i] when
// offs is non-nil: a list batch, whose region 1 carries (block, offset)
// pairs and whose layout byte in region 2 tells the polling thread to decode
// them as such. blocks and offs are the caller's again as soon as publish
// first yields: a publish that must wait for a slot snapshots them first.
func (m *Manager) publish(p *sim.Proc, op Op, blocks []uint64, buf *gpu.Buffer, off int64, offs []int64) *Batch {
	indexed := offs != nil
	entry := r1EntryBytes(indexed)
	if len(blocks) == 0 {
		panic("cam: empty batch")
	}
	if max := int64(m.cfg.MaxBatch) * 8 / entry; int64(len(blocks)) > max {
		panic(fmt.Sprintf("cam: batch of %d exceeds the %d that fit a region-1 slot", len(blocks), max))
	}
	if !buf.Pinned {
		panic("cam: buffer must come from CAM Alloc (pinned for P2P DMA)")
	}
	if indexed {
		buf.CheckBlocks(len(blocks), offs, m.cfg.BlockBytes)
	} else if need := int64(len(blocks)) * m.cfg.BlockBytes; off < 0 || off+need > buf.Size() {
		panic("cam: batch does not fit in buffer")
	}

	// Flow control: at most MaxOutstanding published batches.
	var snap *listCopy
	if !m.slotRes.TryAcquire(1) {
		snap = m.lists.Get()
		snap.blocks = append(snap.blocks[:0], blocks...)
		snap.offs = append(snap.offs[:0], offs...)
		blocks, offs = snap.blocks, snap.offs
		m.slotRes.Acquire(p, 1)
	}

	m.seq++
	slot := m.freeSlots[m.slotPop%uint(len(m.freeSlots))]
	m.slotPop++
	b := m.batches.Get()
	b.Seq, b.Op, b.Count, b.m, b.slot, b.indexed = m.seq, op, len(blocks), m, slot, indexed
	b.done.Init(m.e, "cam.batch")

	// Region 1: the LBA array (real bytes, GPU→CPU over PCIe).
	r1 := m.r1[int64(b.slot)*int64(m.cfg.MaxBatch)*8:]
	for i, blk := range blocks {
		binary.LittleEndian.PutUint64(r1[int64(i)*entry:], blk)
		if indexed {
			binary.LittleEndian.PutUint64(r1[int64(i)*entry+8:], uint64(offs[i]))
		}
	}
	// Region 2: the batch arguments. The layout byte distinguishes plain
	// batches from list batches; slots are reused, so it is written every
	// publish.
	abase := int64(b.slot) * argsSlotBytes
	m.r2[abase] = byte(op)
	m.r2[abase+1] = 0
	if indexed {
		m.r2[abase+1] = 1
	}
	binary.LittleEndian.PutUint64(m.r2[abase+8:], uint64(len(blocks)))
	binary.LittleEndian.PutUint64(m.r2[abase+16:], uint64(buf.Addr)+uint64(off))
	binary.LittleEndian.PutUint64(m.r2[abase+24:], uint64(m.cfg.BlockBytes))
	// Region 3: the doorbell.
	binary.LittleEndian.PutUint64(m.r3, b.Seq)
	if snap != nil {
		m.lists.Put(snap)
	}

	// Publishing cost: region 1 crosses PCIe (8 or 16 B per block) plus
	// the posted doorbell write.
	m.fab.DMA(p, int64(len(blocks))*entry)
	p.Sleep(m.fab.MMIODelay())
	b.published = m.e.Now()

	m.batchQ.Put(b)
	m.overlap.IO(1)
	// The CPU polling thread notices after its pickup latency.
	m.e.Schedule(calib.CAMPollPickup(), m.fireDoorbell)
	return b
}

// listCopy is a waiting publish's private copy of its block and offset lists.
type listCopy struct {
	blocks []uint64
	offs   []int64
}

// pollStep is the persistent CPU polling thread of §III-B as a callback
// state machine: it parks on the doorbell signal and, each time it runs,
// acknowledges the doorbell, drains every published batch, and re-parks.
// The drain is synchronous (batch dispatch costs no virtual time beyond the
// per-command backend model), so a single phase suffices.
type pollStep struct {
	m *Manager
}

// Run discovers published batches, decodes the regions, fans requests out
// to the reactors, and re-arms the doorbell wait (engine-callback context).
func (s *pollStep) Run() {
	m := s.m
	if m.doorbell.Fired() {
		m.doorbell.Reset()
	}
	for {
		b, ok := m.batchQ.TryGet()
		if !ok {
			m.doorbell.WaitCallback(0, s)
			return
		}
		m.dispatchBatch(b)
	}
}

// dispatchBatch is the CPU-side half of the handshake for one batch.
func (m *Manager) dispatchBatch(b *Batch) {
	m.markBusy(m.e.Now())

	// Decode regions (the data path of the handshake).
	abase := int64(b.slot) * argsSlotBytes
	op := Op(m.r2[abase])
	indexed := m.r2[abase+1] == 1
	count := int(binary.LittleEndian.Uint64(m.r2[abase+8:]))
	dest := mem.Addr(binary.LittleEndian.Uint64(m.r2[abase+16:]))
	blockBytes := int64(binary.LittleEndian.Uint64(m.r2[abase+24:]))
	if op != b.Op || indexed != b.indexed || count != b.Count || blockBytes != m.cfg.BlockBytes {
		panic("cam: region-2 decode mismatch")
	}

	nvop := nvme.OpRead
	if op == OpWriteBack {
		nvop = nvme.OpWrite
	}
	entry := int(r1EntryBytes(indexed))
	// The batch finishes at the latest instant among its commands, one
	// per block.
	b.io.Open(m.drv, (*batchFinish)(b))
	r1 := m.r1[int64(b.slot)*int64(m.cfg.MaxBatch)*8:]
	for i := 0; i < count; i++ {
		ent := r1[i*entry:]
		off := uint64(int64(i) * blockBytes)
		if indexed {
			off = binary.LittleEndian.Uint64(ent[8:])
		}
		dev, lba := m.locate(binary.LittleEndian.Uint64(ent))
		b.io.Add(nvop, dev, lba, blockBytes, dest+mem.Addr(off))
	}
	m.inFlight++
	m.stats.Batches++
	m.stats.Requests += uint64(count)
	m.stats.Commands += uint64(count)
	b.io.Close()
}

// batchFinish is a batch's finishing event.
type batchFinish Batch

func (f *batchFinish) Run() {
	b := (*Batch)(f)
	b.m.finishBatch(b)
}

// finishBatch runs (in reactor context) when the last request of a batch
// completes: tally its blocks, write region 4 through PCIe and release the
// slot.
func (m *Manager) finishBatch(b *Batch) {
	m.inFlight--
	if m.inFlight == 0 {
		m.markIdle(m.e.Now())
	}
	failed := b.io.Failed
	moved := int64(b.Count-failed) * m.cfg.BlockBytes
	if b.Op == OpPrefetch {
		m.stats.BytesRead += moved
	} else {
		m.stats.BytesWritten += moved
	}
	if failed > 0 {
		m.stats.FailedRequests += uint64(failed)
		m.stats.FailedBatches++
	}
	b.completed = m.e.Now() + m.fab.MMIODelay()
	// Region 4 carries the highest completed sequence; batches can finish
	// out of order when their device mixes differ.
	if cur := binary.LittleEndian.Uint64(m.r4); b.Seq > cur {
		binary.LittleEndian.PutUint64(m.r4, b.Seq)
	}
	m.overlap.IO(-1)
	m.e.ScheduleCallback(m.fab.MMIODelay(), b)
	m.freeSlots[m.slotPush%uint(len(m.freeSlots))] = b.slot
	m.slotPush++
	m.slotRes.Release(1)
	m.sinceAdj++
	if m.cfg.DynamicCores && m.sinceAdj >= m.cfg.AdjustPeriod && m.inFlight == 0 {
		m.adjustCores()
		m.sinceAdj = 0
	}
}

// markBusy/markIdle integrate I/O-busy versus idle (compute-only) time.
func (m *Manager) markBusy(now sim.Time) {
	if m.inFlight == 0 && m.batchQ.Len() == 0 {
		m.idleAccum += now - m.lastChange
		m.lastChange = now
	}
}

func (m *Manager) markIdle(now sim.Time) {
	m.busyAccum += now - m.lastChange
	m.lastChange = now
}

// adjustCores applies the paper's dynamic core adjustment: if I/O time
// dominated the last window (batches were waiting, nothing overlapped),
// grow toward maxCores; if computation dominated (long idle gaps), shrink
// toward minCores — the I/O will still hide under compute at lower core
// count. Runs only at quiescent points (no in-flight requests).
func (m *Manager) adjustCores() {
	total := m.busyAccum + m.idleAccum
	if total == 0 {
		return
	}
	ioFrac := float64(m.busyAccum) / float64(total)
	m.busyAccum, m.idleAccum = 0, 0
	want := m.activeCores
	switch {
	case ioFrac > 0.85 && m.activeCores < m.maxCores:
		want = m.activeCores + 1
	case ioFrac < 0.55 && m.activeCores > m.minCores:
		want = m.activeCores - 1
	}
	if want != m.activeCores {
		m.drv.SetActiveReactors(want)
		if want > m.activeCores {
			m.stats.CoreAdjustUp++
		} else {
			m.stats.CoreAdjustDown++
		}
		m.activeCores = want
	}
}
