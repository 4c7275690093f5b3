// Package ssd models an enterprise NVMe SSD calibrated to the Intel P5510
// the paper evaluates on: a controller frontend whose per-command service
// time caps IOPS and internal flash bandwidth, a constant media latency
// pipeline (calib.SSDReadLatency, SSDWriteLatency), a DMA engine that moves real bytes
// over the shared PCIe fabric to any registered physical address (host DRAM
// or GPU HBM), and a sparse backing store.
//
// The controller consumes standard NVMe queue pairs regardless of where the
// rings live or who rings the doorbell, which is what lets the same device
// serve the kernel stacks, SPDK, BaM, and CAM.
package ssd

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/fault"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
)

// Config calibrates one SSD; the rates and latencies no caller varies are
// calib rows (calib.SSDWriteIOPS, SSDReadBandwidth, SSDWriteBandwidth,
// SSDReadLatency, SSDWriteLatency, SSDGCPageCost).
type Config struct {
	// CapacityBytes is the namespace capacity.
	CapacityBytes int64

	// ReadIOPS caps small-granularity random read commands per second.
	ReadIOPS float64

	// LatencyJitter is the relative uniform jitter applied to media
	// latency (0.1 = ±10 %).
	LatencyJitter float64

	// Seed drives the device's private jitter stream.
	Seed uint64

	// OverProvision is the spare-capacity fraction behind the FTL.
	OverProvision float64
	// ChargeGC makes garbage-collection page migrations consume
	// controller frontend time, calib.SSDGCPageCost per migrated page (off
	// by default: the calibrated write rate already reflects steady state;
	// see the abl-ftl experiment).
	ChargeGC bool
}

// DefaultConfig is the Intel P5510 3.84 TB the paper evaluates on. Its 4 KiB
// read rate is the datasheet's; its large-command flash rate
// (calib.SSDReadBandwidth, 3.2 GB/s) is the calibrated one, not the
// datasheet's 6.5 GB/s sequential read. Twelve devices demand more 4 KiB
// reads than the PCIe ceiling carries, so the platform is fabric-limited
// exactly as the paper measures (DESIGN §4 has the arithmetic).
func DefaultConfig() Config {
	return Config{
		CapacityBytes: calib.SSDCapacity(),
		ReadIOPS:      calib.SSDReadIOPS(),
		LatencyJitter: calib.SSDLatencyJitter(),
		Seed:          1,
		OverProvision: calib.SSDOverProvision(),
	}
}

// Stats aggregates device counters.
type Stats struct {
	ReadCmds     uint64
	WriteCmds    uint64
	FlushCmds    uint64
	ReadBytes    int64
	WriteBytes   int64
	ErrCmds      uint64
	ReadLatSum   sim.Time
	WriteLatSum  sim.Time
	MaxInFlight  int
	currInFlight int
	// ReadStages and WriteStages split the latency sums by stage. For
	// every command the host does not abort, the five stage sums add up
	// to ReadLatSum (WriteLatSum) exactly.
	ReadStages, WriteStages Stages
}

// Stages sums the time commands spent in each stage of the device, from
// arrival to completion. A command's stages are known at fetch, where the
// device books its frontend slot, media pipeline and data transfer.
type Stages struct {
	FrontWait sim.Time // arrival → frontend start: queued behind other commands
	Service   sim.Time // frontend start → service end (GC migrations included)
	Media     sim.Time // service end → media done
	LinkWait  sim.Time // media done → first instant on the PCIe fabric
	DMA       sim.Time // first instant on the fabric → transfer done, gaps lent to other transfers included
}

// Device is one simulated SSD.
type Device struct {
	Name  string
	cfg   Config
	e     *sim.Engine
	fab   *pcie.Fabric
	space *mem.Space
	store *Store
	ftl   *FTL
	rng   *sim.RNG

	qps         []*ioQueue
	anyDoorbell *sim.Signal
	running     bool
	ctrl        ctrlPoll
	// ctrlParked is set when the controller loop has drained everything
	// and is waiting for a doorbell. A ring then re-enters the loop with a
	// direct call at the same instant, not a zero-delay event per command;
	// anyDoorbell is the fallback for rings that land while the loop is
	// mid-drain.
	ctrlParked bool

	// inj is the device's fault-decision stream; nil means every command
	// succeeds (every call on it is nil-safe, so the hot path never
	// branches on "faults enabled").
	inj *fault.Injector

	// frontBusyUntil is the controller frontend serializer: one command
	// at a time occupies it for its service time, capping IOPS and
	// internal bandwidth.
	frontBusyUntil sim.Time

	stats Stats

	// cmdFree recycles ioCmd execution states.
	cmdFree sim.FreeList[ioCmd]
}

// ioQueue is the controller's record of one I/O queue pair: the rings and
// the per-CID state of the commands fetched from them.
type ioQueue struct {
	qp *nvme.QueuePair
	// cids is indexed by command identifier. CIDs are host-chosen and
	// usually dense (drivers recycle them below the queue depth), so the
	// table starts at the queue depth and grows to the highest CID a host
	// ever submits.
	cids []cidSlot
}

// cidSlot is everything the controller keeps per command identifier, in one
// record so that a command touches one cache line of it.
type cidSlot struct {
	// submitAt is the arrival instant of the latest command with this
	// identifier: its fetch, or the later instant RingAt published it at.
	// Latency counts from it; timed is false while the slot is idle. A
	// host reuses an identifier only after its command ended, so a stale
	// submitAt is never after the next fetch.
	submitAt sim.Time
	timed    bool
	// cmd is the command in flight, so Abort can cancel it.
	cmd *ioCmd
	// dropped marks a CID the controller silently lost (injected drop or
	// dead device), so Abort can tell "never coming" from "still running".
	dropped bool
}

// New creates a device attached to the fabric and address space.
func New(e *sim.Engine, name string, cfg Config, fab *pcie.Fabric, space *mem.Space) *Device {
	if cfg.CapacityBytes <= 0 || cfg.ReadIOPS <= 0 {
		panic("ssd: invalid config for " + name)
	}
	op := cfg.OverProvision
	if op <= 0 {
		op = calib.SSDOverProvision()
	}
	if fab.Engine() != e {
		panic("ssd: " + name + " constructed on a different engine than its fabric; device and fabric must share one engine")
	}
	return &Device{
		Name:        name,
		cfg:         cfg,
		e:           e,
		fab:         fab,
		space:       space,
		store:       NewStore(uint64(cfg.CapacityBytes) / nvme.LBASize),
		ftl:         NewFTL(DefaultFTLConfig(cfg.CapacityBytes, op)),
		rng:         sim.NewRNG(cfg.Seed),
		anyDoorbell: e.NewSignal(name + ".anydb"),
	}
}

// FTL exposes the device's translation layer (stats, invariants).
func (d *Device) FTL() *FTL { return d.ftl }

// SetFaultInjector installs a fault-decision stream (nil disables). When
// the plan injects NAND program failures, the FTL draws from the same
// stream. Call before Start.
func (d *Device) SetFaultInjector(in *fault.Injector) {
	d.inj = in
	if p := in.Plan(); p != nil && p.ProgramFailRate > 0 {
		d.ftl.SetProgramFault(in.ProgramFail)
	}
}

// Injector reports the installed fault injector (nil when faults are off).
func (d *Device) Injector() *fault.Injector { return d.inj }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Store exposes the backing store (tests and dataset loaders use it to
// pre-populate data without paying simulated time).
func (d *Device) Store() *Store { return d.store }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// CreateQueuePair registers an I/O queue pair whose rings live in the
// provided memory slices (host DRAM for kernel/SPDK/CAM, GPU HBM for BaM).
// Must be called before Start or between runs.
func (d *Device) CreateQueuePair(name string, sqMem, cqMem []byte, depth uint32) *nvme.QueuePair {
	qp := nvme.NewQueuePair(d.e, fmt.Sprintf("%s.%s", d.Name, name), sqMem, cqMem, depth)
	d.addQP(qp, depth)
	return qp
}

// addQP registers a queue pair with the controller, pre-sizing its CID table
// to the queue depth.
func (d *Device) addQP(qp *nvme.QueuePair, depth uint32) {
	d.qps = append(d.qps, &ioQueue{qp: qp, cids: make([]cidSlot, depth)})
}

// QueuePairs reports how many queue pairs the controller serves.
func (d *Device) QueuePairs() int { return len(d.qps) }

// SubmitTime reports the arrival instant of the latest command with
// identifier cid on qp, the instant its latency is counted from (0 if none
// arrived).
func (d *Device) SubmitTime(qp *nvme.QueuePair, cid uint16) sim.Time {
	for _, q := range d.qps {
		if q.qp == qp && int(cid) < len(q.cids) {
			return q.cids[cid].submitAt
		}
	}
	return 0
}

// Ring publishes new submissions on qp to the controller. Hosts call this
// after one or more SQ.Push calls; it models the doorbell write.
func (d *Device) Ring(qp *nvme.QueuePair) {
	qp.SQ.Ring()
	d.kickCtrl()
}

// RingAt is Ring for the entry with identifier cid, pushed last, whose
// doorbell write lands at instant at, no earlier than now: a host that
// accounts its own CPU time ahead of the engine's clock (the SPDK
// reactor's submission run) publishes each entry with the instant its
// submit cost ends. The controller executes the entry as of that instant —
// frontend slot, submit stamp, fault draw and media-done time — and posts
// an error it finds at fetch no earlier. Only the qp's host may write ahead
// of the clock, and only while qp is the device's one queue pair: another
// host's doorbell, rung between now and at, would otherwise be served after
// an entry that arrived later.
func (d *Device) RingAt(qp *nvme.QueuePair, cid uint16, at sim.Time) {
	for _, q := range d.qps {
		if q.qp == qp {
			q.slot(cid).submitAt = at
			break
		}
	}
	d.Ring(qp)
}

// kickCtrl wakes the controller loop: a parked loop re-enters by direct
// call at the current instant (no event), anything else falls back to the
// doorbell signal the loop checks before parking.
func (d *Device) kickCtrl() {
	if d.ctrlParked {
		d.ctrlParked = false
		d.ctrl.Run()
		return
	}
	d.anyDoorbell.Fire()
}

// Start launches the controller process. Call once after creating queue
// pairs.
func (d *Device) Start() {
	if d.running {
		panic("ssd: Start called twice on " + d.Name)
	}
	d.running = true
	d.ctrl.d = d
	d.e.ScheduleCallback(0, &d.ctrl)
}

// ctrlPoll is the controller main loop as an engine-callback state machine:
// one event at Start, then one per doorbell fire that finds it mid-drain.
type ctrlPoll struct {
	d *Device
}

// Run drains SQEs from every queue pair, starts their execution, and re-arms
// on the doorbell signal once fully idle.
func (c *ctrlPoll) Run() {
	d := c.d
	for {
		progressed := false
		for _, q := range d.qps {
			for {
				sqe, err := q.qp.SQ.Pop()
				if err != nil {
					break
				}
				progressed = true
				d.execute(q, sqe)
			}
		}
		if !progressed {
			if !d.anyDoorbell.Fired() {
				// Park until the next doorbell; kickCtrl re-enters this
				// loop by direct call exactly where a process resume
				// would go.
				d.ctrlParked = true
				return
			}
			d.anyDoorbell.Reset()
		}
	}
}

// serviceTime is the frontend occupation of one command: the larger of the
// IOPS-derived per-command cost and the bandwidth-derived transfer cost.
func (d *Device) serviceTime(op nvme.Opcode, bytes int64) sim.Time {
	perCmd, bw := 1/calib.SSDWriteIOPS(), calib.SSDWriteBandwidth() // writes, and flush
	if op == nvme.OpRead {
		perCmd, bw = 1/d.cfg.ReadIOPS, calib.SSDReadBandwidth()
	}
	t := perCmd
	if xfer := float64(bytes) / bw; xfer > t {
		t = xfer
	}
	return sim.Time(t * float64(sim.Second))
}

// mediaLatency draws the added pipeline latency for one command.
func (d *Device) mediaLatency(op nvme.Opcode) sim.Time {
	var base sim.Time
	switch op {
	case nvme.OpRead:
		base = calib.SSDReadLatency()
	case nvme.OpWrite:
		base = calib.SSDWriteLatency()
	default:
		base = 2 * sim.Microsecond
	}
	if d.cfg.LatencyJitter <= 0 {
		return base
	}
	j := 1 + d.cfg.LatencyJitter*(2*d.rng.Float64()-1)
	return sim.Time(float64(base) * j)
}

// ioCmd is the pooled execution state of one in-flight command. It is its
// own sim.Callback, scheduled once: a read or write that moves data books
// its whole pipeline at fetch and runs once, at DMA done. States recycle
// through Device.cmdFree.
type ioCmd struct {
	d      *Device
	q      *ioQueue
	sqe    nvme.SQE
	pay    *mem.Payload
	payOff int64
	phase  uint8
	// injStatus is a pre-drawn fault verdict: when non-success the command
	// consumes its normal frontend and media time but moves no data and
	// completes with this status at media done. A cmdFetchErr command posts
	// it at its arrival instant.
	injStatus nvme.Status
	// aborted marks a command the host gave up on (Device.Abort): it still
	// runs its pipeline out but its CQE is suppressed, so the host can
	// safely recycle the CID for a retry.
	aborted bool
}

// ioCmd phases: the one event each command is scheduled for.
const (
	cmdDMADone   uint8 = iota // DMA finished → move bytes, post CQE
	cmdMediaErr               // media done with an injected error → post it, no data moved
	cmdFlushDone              // flush frontend slot drained → post CQE
	cmdFetchErr               // arrival instant reached → post the fetch error
)

// Run advances the command one phase (engine-callback context).
func (c *ioCmd) Run() {
	d := c.d
	switch c.phase {
	case cmdMediaErr:
		// Injected media error: the command occupied the frontend and the
		// media pipeline like any other, but moves no data — no DMA, no
		// store access.
		switch c.sqe.Opcode {
		case nvme.OpRead:
			d.stats.ReadCmds++
		case nvme.OpWrite:
			d.stats.WriteCmds++
		}
		d.stats.ErrCmds++
		d.finish(c, c.injStatus)
	case cmdDMADone:
		var status nvme.Status
		switch c.sqe.Opcode {
		case nvme.OpRead:
			if err := d.store.ReadLBAP(c.sqe.SLBA, c.sqe.NLB, c.pay, c.payOff); err != nil {
				status = nvme.StatusDMAError
			}
			d.stats.ReadCmds++
			d.stats.ReadBytes += c.sqe.Bytes()
		case nvme.OpWrite:
			if err := d.store.WriteLBAP(c.sqe.SLBA, c.sqe.NLB, c.pay, c.payOff); err != nil {
				status = nvme.StatusDMAError
			}
			d.stats.WriteCmds++
			d.stats.WriteBytes += c.sqe.Bytes()
		}
		if status != nvme.StatusSuccess {
			d.stats.ErrCmds++
		}
		d.finish(c, status)
	case cmdFlushDone:
		d.stats.FlushCmds++
		d.finish(c, nvme.StatusSuccess)
	case cmdFetchErr:
		d.stats.ErrCmds++
		d.finish(c, c.injStatus)
	}
}

// newCmd takes a command state from the pool.
func (d *Device) newCmd(q *ioQueue, sqe nvme.SQE) *ioCmd {
	c := d.cmdFree.Get()
	c.d, c.q, c.sqe = d, q, sqe
	c.injStatus, c.aborted = nvme.StatusSuccess, false
	return c
}

// finish completes a pooled command and recycles its state. An aborted
// command posts no CQE: the host already synthesized a timeout for it and
// may have reused the CID, so the live slot is released only if it still
// points at this command.
func (d *Device) finish(c *ioCmd, status nvme.Status) {
	if slot := &c.q.cids[c.sqe.CID]; slot.cmd == c {
		slot.cmd = nil
	}
	if c.aborted {
		d.stats.currInFlight--
	} else {
		d.complete(c.q, &c.sqe, status)
	}
	c.q, c.pay = nil, nil
	d.cmdFree.Put(c)
}

// execute books one command's whole pipeline at fetch and schedules its one
// completion event (no per-command process), so any number of commands
// overlap in the latency pipeline while the frontend serializer enforces
// throughput. Every stage's end is known here: the frontend slot, the media
// latency, and the data transfer, booked on the fabric for the instant the
// media phase ends (the fabric fills gaps, so a command fetched later may
// take link time ahead of it). The command is served as of its arrival
// instant: the fetch, or the later instant RingAt published it at.
func (d *Device) execute(q *ioQueue, sqe nvme.SQE) {
	d.stats.currInFlight++
	if d.stats.currInFlight > d.stats.MaxInFlight {
		d.stats.MaxInFlight = d.stats.currInFlight
	}
	now := d.e.Now()
	slot := q.slot(sqe.CID)
	at := max(slot.submitAt, now)
	slot.submitAt, slot.timed, slot.dropped = at, true, false

	switch sqe.Opcode {
	case nvme.OpFlush:
		start := at
		if d.frontBusyUntil > start {
			start = d.frontBusyUntil
		}
		d.frontBusyUntil = start + d.serviceTime(nvme.OpFlush, 0)
		c := d.newCmd(q, sqe)
		c.phase = cmdFlushDone
		d.e.ScheduleCallback(d.frontBusyUntil-now, c)
		return
	case nvme.OpRead, nvme.OpWrite:
	default:
		d.fetchError(q, sqe, nvme.StatusInvalidOpcode, at)
		return
	}

	if !d.store.InRange(sqe.SLBA, sqe.NLB) {
		d.fetchError(q, sqe, nvme.StatusLBAOutOfRange, at)
		return
	}
	n := sqe.Bytes()
	// The region's kind is not needed here: callers charge DRAM traffic on
	// their own staging paths.
	pay, payOff, _, err := d.space.ResolvePayload(mem.Addr(sqe.PRP1), int(n))
	if err != nil {
		d.fetchError(q, sqe, nvme.StatusDMAError, at)
		return
	}

	// Fault-injection verdict: structurally valid commands consume exactly
	// one draw from the device's private stream (nil injector → None).
	dec := d.inj.Decide(at, sqe.Opcode)
	if dec.Kind == fault.Drop {
		// The controller loses the command: no CQE, ever. Clean up the
		// bookkeeping so the slot is idle and mark the CID dropped so a
		// host Abort learns nothing is coming.
		d.stats.currInFlight--
		slot.timed, slot.dropped = false, true
		return
	}

	// Frontend occupation caps IOPS / internal bandwidth.
	start := at
	if d.frontBusyUntil > start {
		start = d.frontBusyUntil
	}
	serviceDone := start + d.serviceTime(sqe.Opcode, n)

	// Writes walk the flash translation layer: page mapping, allocation,
	// and (when free blocks run low) garbage collection. By default GC
	// only accounts; with ChargeGC its page migrations occupy the
	// frontend like any other NAND work. A write failing with an injected
	// media error programs nothing.
	if sqe.Opcode == nvme.OpWrite && dec.Kind != fault.Err {
		programs := d.ftl.HostWrite(int64(sqe.SLBA)*nvme.LBASize, n)
		hostPages := (n + d.ftl.cfg.PageBytes - 1) / d.ftl.cfg.PageBytes
		if d.cfg.ChargeGC && programs > hostPages {
			serviceDone += sim.Time(programs-hostPages) * calib.SSDGCPageCost()
		}
	}
	d.frontBusyUntil = serviceDone

	// Media latency pipeline (unbounded overlap).
	lat := d.mediaLatency(sqe.Opcode)
	if dec.Kind == fault.Slow {
		lat = sim.Time(float64(lat) * dec.SlowFactor)
	}
	mediaDone := serviceDone + lat
	st := &d.stats.ReadStages
	if sqe.Opcode == nvme.OpWrite {
		st = &d.stats.WriteStages
	}
	st.FrontWait += start - at
	st.Service += serviceDone - start
	st.Media += mediaDone - serviceDone

	c := d.newCmd(q, sqe)
	slot.cmd = c
	if dec.Kind == fault.Err {
		c.phase, c.injStatus = cmdMediaErr, nvme.StatusMediaError
		d.e.ScheduleCallback(mediaDone-now, c)
		return
	}
	dmaStart, dmaDone := d.fab.ReserveDMAFrom(mediaDone, n)
	st.LinkWait += dmaStart - mediaDone
	st.DMA += dmaDone - dmaStart
	c.pay, c.payOff, c.phase = pay, payOff, cmdDMADone
	d.e.ScheduleCallback(dmaDone-now, c)
}

// fetchError completes a command the controller rejects at fetch, at its
// arrival instant: at once when that is now, else by an event then, so the
// command's latency is never negative.
func (d *Device) fetchError(q *ioQueue, sqe nvme.SQE, status nvme.Status, at sim.Time) {
	if now := d.e.Now(); at > now {
		c := d.newCmd(q, sqe)
		c.phase, c.injStatus = cmdFetchErr, status
		d.e.ScheduleCallback(at-now, c)
		return
	}
	d.stats.ErrCmds++
	d.complete(q, &sqe, status)
}

// slot returns cid's slot, growing the table if the host uses identifiers
// beyond the queue depth.
func (q *ioQueue) slot(cid uint16) *cidSlot {
	if int(cid) >= len(q.cids) {
		q.cids = append(q.cids, make([]cidSlot, int(cid)+1-len(q.cids))...) // rare CID-range regrow when a host uses identifiers past queue depth
	}
	return &q.cids[cid]
}

// AbortResult reports what Device.Abort found for a CID.
type AbortResult uint8

// Abort outcomes.
const (
	// AbortNotFound: no such command is pending — its CQE was already
	// posted (the host should drain the CQ before reusing the CID) or the
	// CID was never submitted.
	AbortNotFound AbortResult = iota
	// AbortInFlight: the command was still executing; its CQE is now
	// suppressed and the CID is immediately reusable.
	AbortInFlight
	// AbortDropped: the controller had silently lost the command; nothing
	// was pending and the CID is immediately reusable.
	AbortDropped
)

// Abort cancels one outstanding command on qp, the device half of host
// timeout recovery (NVMe abort, simplified: always wins unless the CQE is
// already posted). After AbortInFlight or AbortDropped the host may reuse
// the CID at once; the aborted command's eventual pipeline exit posts no
// CQE.
func (d *Device) Abort(qp *nvme.QueuePair, cid uint16) AbortResult {
	var q *ioQueue
	for _, c := range d.qps {
		if c.qp == qp {
			q = c
			break
		}
	}
	if q == nil || int(cid) >= len(q.cids) {
		return AbortNotFound
	}
	slot := &q.cids[cid]
	if slot.dropped {
		slot.dropped = false
		return AbortDropped
	}
	if c := slot.cmd; c != nil {
		c.aborted = true
		slot.cmd, slot.timed = nil, false
		return AbortInFlight
	}
	return AbortNotFound
}

// complete posts the CQE and records the command's submit-to-complete
// latency.
func (d *Device) complete(q *ioQueue, sqe *nvme.SQE, status nvme.Status) {
	if slot := &q.cids[sqe.CID]; slot.timed {
		lat := d.e.Now() - slot.submitAt
		switch sqe.Opcode {
		case nvme.OpRead:
			d.stats.ReadLatSum += lat
		case nvme.OpWrite:
			d.stats.WriteLatSum += lat
		}
		slot.timed = false
	}
	d.stats.currInFlight--
	q.qp.CQ.Post(nvme.CQE{CID: sqe.CID, SQHead: uint16(q.qp.SQ.Head()), Status: status})
}
