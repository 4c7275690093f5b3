// Package oskernel models the Linux kernel I/O stacks the paper profiles in
// Figures 2 and 3: POSIX pread/pwrite with O_DIRECT, libaio, and io_uring in
// interrupt and polling modes, plus the md-RAID0 striping layer used to
// aggregate multiple SSDs under one block device.
//
// Each request walks the paper's four layers — User, File system (logical
// block address retrieval), I/O mapping (page pin + BIO setup), and Block
// I/O — through a serialized kernel path whose per-layer costs determine
// both the achievable IOPS (Fig 2) and the time breakdown (Fig 3). Data is
// staged through host DRAM: the destination of the NVMe DMA is always a
// kernel bounce buffer in CPU memory, which is what forces the redundant
// copy of the paper's Issue 2 when the consumer is the GPU.
package oskernel

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/cpustat"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

// StackKind selects which software I/O stack services requests.
type StackKind int

// The paper's four kernel I/O stacks.
const (
	POSIX StackKind = iota
	Libaio
	IOUringInt
	IOUringPoll
)

func (k StackKind) String() string {
	switch k {
	case POSIX:
		return "POSIX"
	case Libaio:
		return "libaio"
	case IOUringInt:
		return "io_uring int"
	case IOUringPoll:
		return "io_uring poll"
	default:
		return fmt.Sprintf("StackKind(%d)", int(k))
	}
}

// Kinds lists all stacks in presentation order.
func Kinds() []StackKind { return []StackKind{POSIX, Libaio, IOUringInt, IOUringPoll} }

// LayerCosts is the per-request kernel time spent in each layer for a
// 4 KiB request. IOMapPerPage is added per 4 KiB page to model pinning
// larger buffers.
type LayerCosts struct {
	User       sim.Time
	Filesystem sim.Time
	IOMap      sim.Time
	IOMapPage  sim.Time // additional per 4 KiB page beyond the first
	BlockIO    sim.Time
	Completion sim.Time // interrupt or completion-reap handling
}

func extraPages(n int64) int64 {
	pages := (n + 4095) / 4096
	if pages <= 1 {
		return 0
	}
	return pages - 1
}

// Config sizes a kernel stack instance.
type Config struct {
	// QueueDepth bounds in-flight commands per device.
	QueueDepth uint32
	// StripeBytes is the RAID0 chunk size across devices.
	StripeBytes int64
}

// DefaultConfig returns the kernel's queue depth and the md-RAID0 stripe;
// every stack kind shares them. A kind's costs are calib rows (stackRows).
func DefaultConfig(StackKind) Config {
	return Config{QueueDepth: calib.KernelQueueDepth(), StripeBytes: calib.RAID0Stripe()}
}

// stackRows names each stack's calib rows: its 4 KiB read and write path
// times, the instructions it retires per request (Fig 13) and the IPC it
// retires them at. They land the paper's shapes: every stack sits below the
// device's 4 KiB line on one SSD, the File system and I/O mapping layers
// cost more than 34 % of per-request time, and POSIX < libaio < io_uring-int
// < io_uring-poll (DESIGN §4).
var stackRows = [...]struct {
	read, write func() sim.Time
	instr, ipc  func() float64
}{
	POSIX:       {calib.POSIXRead, calib.POSIXWrite, calib.POSIXInstr, calib.POSIXIPC},
	Libaio:      {calib.LibaioRead, calib.LibaioWrite, calib.LibaioInstr, calib.LibaioIPC},
	IOUringInt:  {calib.URingIntRead, calib.URingIntWrite, calib.URingIntInstr, calib.URingIntIPC},
	IOUringPoll: {calib.URingPollRead, calib.URingPollWrite, calib.URingPollInstr, calib.URingPollIPC},
}

// layerCosts splits one request's path time across the layers: User,
// File system and I/O mapping take their calib percentages, completion
// handling its share, and Block I/O the rest. Only the serialized kernel
// portion (everything but the User layer) caps a stack's IOPS.
func layerCosts(total sim.Time, completionShare float64) LayerCosts {
	comp := sim.Time(float64(total) * completionShare)
	user := total * sim.Time(calib.KernelUserPct()) / 100
	fs := total * sim.Time(calib.KernelFSPct()) / 100
	iomap := total * sim.Time(calib.KernelIOMapPct()) / 100
	return LayerCosts{
		User:       user,
		Filesystem: fs,
		IOMap:      iomap,
		IOMapPage:  calib.KernelIOMapPage(),
		BlockIO:    total - user - fs - iomap - comp,
		Completion: comp,
	}
}

// request is one in-flight kernel command: one stripe of a Range, N bytes
// at Pay[PayOff:], moved by reference. Done fires when its completion has
// been delivered; submit re-arms it for each use.
type request struct {
	Op     nvme.Opcode
	Offset int64 // byte offset in the striped block device
	Pay    *mem.Payload
	PayOff int64
	N      int64
	Status nvme.Status
	Done   sim.Signal

	dev int
	cid uint16
}

// Stack is one configured kernel I/O stack over a RAID0 array of SSDs.
type Stack struct {
	Kind StackKind
	cfg  Config
	e    *sim.Engine
	hm   *hostmem.Memory
	devs []*ssd.Device
	qps  []*nvme.QueuePair

	// read and write are the per-layer costs of a 4 KiB request; irq is
	// the interrupt delivery delay (zero for polled completion); instr and
	// ipc are the per-request kernel path instructions and their IPC.
	read, write LayerCosts
	irq         sim.Time
	instr, ipc  float64

	// kernelBusyUntil serializes the kernel submission path: the shared
	// fs/io_map/block layers that bound IOPS regardless of device count.
	kernelBusyUntil sim.Time

	slots []*sim.Resource // per-device in-flight limiter
	// tags maps each device's command identifiers to their requests.
	tags []nvme.Tags[*request]

	// freeRange recycles the synchronous path's ranges, stripes included.
	freeRange sim.FreeList[Range]

	// bounce is the per-device kernel DMA staging area: one slot of
	// StripeBytes per command identifier, so concurrent commands never
	// share staging memory.
	bounce []*hostmem.Buffer

	Stat cpustat.Counters

	// LayerTime holds the layer time integrals for Fig 3, indexed by the
	// Layer constants.
	LayerTime [numLayers]sim.Time
}

// Indices into Stack.LayerTime, in the order a request walks the layers.
const (
	LayerUser = iota
	LayerFilesystem
	LayerIOMap
	LayerBlockIO
	LayerCompletion
	numLayers
)

// layerNames are LayerBreakdown's keys, by layer index.
var layerNames = [numLayers]string{"user", "filesystem", "iomap", "blockio", "completion"}

// NewStack builds a stack over devices; each device gets one kernel queue
// pair (rings live in host DRAM, as the kernel allocates them).
func NewStack(e *sim.Engine, kind StackKind, cfg Config, hm *hostmem.Memory, devs []*ssd.Device) *Stack {
	if len(devs) == 0 {
		panic("oskernel: no devices")
	}
	rows := stackRows[kind]
	share, irq := calib.KernelCompletionShare(), calib.KernelIRQDelay()
	if kind == IOUringPoll {
		share, irq = calib.KernelPollCompletionShare(), 0
	}
	s := &Stack{
		Kind:  kind,
		cfg:   cfg,
		e:     e,
		hm:    hm,
		devs:  devs,
		read:  layerCosts(rows.read(), share),
		write: layerCosts(rows.write(), share),
		irq:   irq,
		instr: rows.instr(),
		ipc:   rows.ipc(),
	}
	for i, d := range devs {
		sqMem := hm.Alloc(fmt.Sprintf("k%s.sq%d", kind, i), int64(cfg.QueueDepth)*nvme.SQESize)
		cqMem := hm.Alloc(fmt.Sprintf("k%s.cq%d", kind, i), int64(cfg.QueueDepth)*nvme.CQESize)
		// Ring memory is control state the queue pair reads word by word,
		// so it stays eagerly materialized.
		qp := d.CreateQueuePair(fmt.Sprintf("kernel-%d", kind), sqMem.MakeEager(), cqMem.MakeEager(), cfg.QueueDepth)
		s.qps = append(s.qps, qp)
		s.slots = append(s.slots, e.NewResource(fmt.Sprintf("kslots%d", i), int64(cfg.QueueDepth)-1))
		s.tags = append(s.tags, nvme.NewTags[*request](cfg.QueueDepth))
		s.bounce = append(s.bounce, hm.Alloc(fmt.Sprintf("k%s.bounce%d", kind, i),
			int64(cfg.QueueDepth)*cfg.StripeBytes))
	}
	for i := range devs {
		k := &kcqStep{s: s, dev: i}
		s.qps[i].CQ.OnPost.WaitCallback(0, k)
	}
	return s
}

// locate maps a byte offset to (device, device LBA) under RAID0 striping.
func (s *Stack) locate(off int64) (dev int, lba uint64) {
	stripe := off / s.cfg.StripeBytes
	dev = int(stripe % int64(len(s.devs)))
	devStripe := stripe / int64(len(s.devs))
	devOff := devStripe*s.cfg.StripeBytes + off%s.cfg.StripeBytes
	return dev, uint64(devOff) / nvme.LBASize
}

func (s *Stack) costs(op nvme.Opcode) LayerCosts {
	if op == nvme.OpWrite {
		return s.write
	}
	return s.read
}

// claimKernel books r's pass through the kernel path (fs → io_map → block,
// plus the eventual completion handling reserved up front) and reports when
// it ends. The path is serialized across all submitters: this shared window
// is what keeps every kernel stack below the device line regardless of
// thread count. Called once the user layer has been slept, it also charges
// all five layers to the Fig 3 integrals.
func (s *Stack) claimKernel(r *request) sim.Time {
	c := s.costs(r.Op)
	iomap := c.IOMap + c.IOMapPage*sim.Time(extraPages(r.N))
	start := s.e.Now()
	if s.kernelBusyUntil > start {
		start = s.kernelBusyUntil
	}
	end := start + c.Filesystem + iomap + c.BlockIO + c.Completion
	s.kernelBusyUntil = end
	s.LayerTime[LayerUser] += c.User
	s.LayerTime[LayerFilesystem] += c.Filesystem
	s.LayerTime[LayerIOMap] += iomap
	s.LayerTime[LayerBlockIO] += c.BlockIO
	s.LayerTime[LayerCompletion] += c.Completion
	return end
}

// chargePath charges the instructions r retires in the kernel path.
func (s *Stack) chargePath(r *request) {
	instr := s.instr + 120*float64(extraPages(r.N))
	if r.Op == nvme.OpWrite {
		// The write path touches the page cache bypass and FUA logic.
		instr *= 1.12
	}
	s.Stat.Charge(instr, s.ipc)
}

// issue takes a command identifier on r.dev (the caller holds a slot there),
// pushes r's SQE and rings the doorbell.
func (s *Stack) issue(r *request) {
	dev := r.dev
	_, lba := s.locate(r.Offset)
	r.cid = s.tags[dev].Alloc(r, 0)

	// The DMA target is this command's staging slot in host DRAM. Writes
	// stage the payload in first (two DRAM crossings counting the device's
	// later DMA read); reads account their crossings at completion.
	if r.Op == nvme.OpWrite {
		s.bounceStage(r, true)
	}
	sqe := nvme.SQE{
		Opcode: r.Op,
		CID:    r.cid,
		NSID:   1,
		PRP1:   uint64(s.bounce[dev].Addr) + uint64(int64(r.cid)*s.cfg.StripeBytes),
		SLBA:   lba,
		NLB:    uint32(r.N / nvme.LBASize),
	}
	if err := s.qps[dev].SQ.Push(sqe); err != nil {
		panic("oskernel: SQ overflow despite slot limiter: " + err.Error())
	}
	s.devs[dev].Ring(s.qps[dev])
}

// Range is one read or write of a byte range of the striped device, carried
// through the kernel path by Start. Done fires once every stripe has
// completed, and Status is then the status of the last stripe, in stripe
// order, that failed. A Range is reusable once Done has fired. A
// single-stripe range keeps its stripe inline and a longer one keeps the
// capacity it grew, so a Range allocates at most once in its life.
type Range struct {
	Done   sim.Signal
	Status nvme.Status

	s     *Stack
	reqs  []request
	one   [1]request // reqs' first backing array
	next  int        // the stripe being submitted, then the one being waited on
	phase uint8
}

// Range phases.
const (
	rgKernel  uint8 = iota // user layer slept; claim the kernel window
	rgSlot                 // kernel path slept; acquire a device tag
	rgGranted              // tag granted; push the SQE
	rgDone                 // stripe next completed
)

// Start reads or writes n bytes at byte offset off of the striped device,
// moving pay[payOff:payOff+n] by reference. Like the block layer it splits
// the range on RAID0 stripes and submits them in stripe order, each walking
// the user layer, the serialized kernel path, a device tag and the SQE push
// through scheduled phases; md-RAID0 has them in flight together. The
// earlier stripes' completions are taken in stripe order, one event each,
// and the last one fires r.Done inline, so a caller waiting on Done wakes
// at the completion that finishes the range. off and n must be 512-byte
// aligned.
func (s *Stack) Start(r *Range, op nvme.Opcode, off int64, pay *mem.Payload, payOff, n int64) {
	if n <= 0 || n%nvme.LBASize != 0 || off%nvme.LBASize != 0 {
		panic(fmt.Sprintf("oskernel: range off=%d n=%d must be 512-aligned and non-empty", off, n))
	}
	r.s, r.Status, r.next = s, nvme.StatusSuccess, 0
	r.Done.Init(s.e, "krange")
	if r.reqs = r.reqs[:0]; r.reqs == nil {
		r.reqs = r.one[:0]
	}
	for n > 0 {
		chunk := min(s.cfg.StripeBytes-off%s.cfg.StripeBytes, n)
		r.reqs = append(r.reqs, request{Op: op, Offset: off, Pay: pay, PayOff: payOff, N: chunk})
		off += chunk
		payOff += chunk
		n -= chunk
	}
	r.submit()
}

// submit starts stripe r.next down the kernel path: the user layer runs on
// the caller. A command never crosses a stripe boundary; Start split them.
func (r *Range) submit() {
	s, q := r.s, &r.reqs[r.next]
	if q.Offset/s.cfg.StripeBytes != (q.Offset+q.N-1)/s.cfg.StripeBytes {
		panic("oskernel: request crosses RAID0 stripe boundary")
	}
	q.Done.Init(s.e, "kreq")
	r.phase = rgKernel
	s.e.ScheduleCallback(s.costs(q.Op).User, r)
}

// Run advances the range one phase (engine-callback context).
func (r *Range) Run() {
	s, q := r.s, &r.reqs[r.next]
	switch r.phase {
	case rgKernel:
		r.phase = rgSlot
		s.e.ScheduleCallback(s.claimKernel(q)-s.e.Now(), r)

	case rgSlot:
		s.chargePath(q)
		q.dev, _ = s.locate(q.Offset)
		r.phase = rgGranted
		// Respect the in-flight bound (kernel tag allocation).
		if !s.slots[q.dev].AcquireCallback(1, r) {
			return
		}
		r.Run()

	case rgGranted:
		s.issue(q)
		if r.next++; r.next < len(r.reqs) {
			r.submit()
			return
		}
		r.next = 0
		r.await()

	case rgDone:
		if q.Status != nvme.StatusSuccess {
			r.Status = q.Status
		}
		if r.next++; r.next < len(r.reqs) {
			r.await()
			return
		}
		for i := range r.reqs {
			r.reqs[i].Pay = nil
		}
		r.Done.Fire()
	}
}

// await waits for stripe r.next: an earlier stripe through a scheduled
// event, the last one inline in its delivery.
func (r *Range) await() {
	q := &r.reqs[r.next]
	r.phase = rgDone
	if r.next < len(r.reqs)-1 {
		q.Done.WaitCallback(0, r)
		return
	}
	q.Done.WaitInline(r)
}

// bounceStage moves request content between the user payload and command
// cid's staging slot on the request's device — the kernel bounce copy of
// the paper's Issue 2. It is the single audited staging helper: content
// moves by reference (PayloadCopy), and both DRAM crossings are charged
// (the copy itself plus the device DMA on the other side of the slot).
// toSlot selects the direction: payload→slot for writes, slot→payload for
// read copy-out.
func (s *Stack) bounceStage(r *request, toSlot bool) {
	off := int64(r.cid) * s.cfg.StripeBytes
	bp := s.bounce[r.dev].Payload()
	if toSlot {
		mem.PayloadCopy(bp, off, r.Pay, r.PayOff, r.N)
	} else {
		mem.PayloadCopy(r.Pay, r.PayOff, bp, off, r.N)
	}
	s.hm.ReserveTraffic(2 * r.N)
}

// kcqStep reaps completions for one device as a callback state machine
// parked on the CQ doorbell: interrupt-driven stacks add the interrupt
// latency through pooled delivery records; the polled stack reaps inline.
type kcqStep struct {
	s   *Stack
	dev int
	// free recycles interrupt-delivery records so the steady-state
	// completion path does not allocate.
	free sim.FreeList[kDeliver]
}

// kDeliver carries one interrupt-delayed completion delivery.
type kDeliver struct {
	k      *kcqStep
	r      *request
	status nvme.Status
}

// Run finishes the delayed delivery (engine-callback context). The record
// recycles before the copy-out so delivery can park a fresh one
// immediately.
func (d *kDeliver) Run() {
	k, r, status := d.k, d.r, d.status
	d.r = nil
	k.free.Put(d)
	k.deliver(r, status)
}

// Run drains the device CQ and re-arms the doorbell wait (engine-callback
// context).
func (k *kcqStep) Run() {
	s := k.s
	qp := s.qps[k.dev]
	if qp.CQ.OnPost.Fired() {
		qp.CQ.OnPost.Reset()
	}
	for {
		cqe, ok := qp.CQ.Poll()
		if !ok {
			qp.CQ.OnPost.WaitCallback(0, k)
			return
		}
		r := s.tags[k.dev].Owner(cqe.CID)
		if r == nil {
			panic("oskernel: completion for unknown CID")
		}
		if s.irq > 0 {
			// Interrupt delivery adds latency (and stall-heavy cycles)
			// but interrupts fan out across cores, so it does not
			// serialize completions.
			s.Stat.ChargeCycles(cpustat.TimeToCycles(s.irq) * 0.3)
			d := k.free.Get()
			d.k, d.r, d.status = k, r, cqe.Status
			s.e.ScheduleCallback(s.irq, d)
		} else {
			k.deliver(r, cqe.Status)
		}
	}
}

// deliver finishes one completion: staging copy-out, accounting, tag and
// slot release, Done signal.
func (k *kcqStep) deliver(r *request, status nvme.Status) {
	s, dev := k.s, k.dev
	// The CID (and its bounce slot) stays reserved until the copy-out
	// finishes, so a reissued command cannot clobber it.
	s.tags[dev].Free(r.cid)
	if r.Op == nvme.OpRead {
		// DMA landed in the staging slot: one DRAM crossing for the DMA
		// write, one for the copy-to-user read.
		s.bounceStage(r, false)
	}
	r.Status = status
	s.Stat.Done(1)
	s.slots[dev].Release(1)
	r.Done.Fire()
}

// ReadAtP performs a synchronous read (pread): n bytes at off land in pay at
// payOff by reference.
func (s *Stack) ReadAtP(p *sim.Proc, off int64, pay *mem.Payload, payOff, n int64) nvme.Status {
	return s.syncIO(p, nvme.OpRead, off, pay, payOff, n)
}

// WriteAtP performs a synchronous write (pwrite) of pay[payOff:payOff+n].
func (s *Stack) WriteAtP(p *sim.Proc, off int64, pay *mem.Payload, payOff, n int64) nvme.Status {
	return s.syncIO(p, nvme.OpWrite, off, pay, payOff, n)
}

// syncIO is a pread or pwrite: the worker starts a pooled Range and waits
// for it once. It reports the status of the last stripe that failed.
func (s *Stack) syncIO(p *sim.Proc, op nvme.Opcode, off int64, pay *mem.Payload, payOff, n int64) nvme.Status {
	r := s.freeRange.Get()
	s.Start(r, op, off, pay, payOff, n)
	p.Wait(&r.Done)
	st := r.Status
	s.freeRange.Put(r)
	return st
}

// LayerBreakdown reports the fraction of total accounted time spent in each
// of the paper's four layers (completion folded into Block I/O would hide
// it, so it is reported separately). Layers never charged are omitted.
func (s *Stack) LayerBreakdown() map[string]float64 {
	var total sim.Time
	for _, t := range s.LayerTime {
		total += t
	}
	out := make(map[string]float64, numLayers)
	for i, t := range s.LayerTime {
		if t > 0 {
			out[layerNames[i]] = float64(t) / float64(total)
		}
	}
	return out
}
