// Package xfer gives out-of-core applications (mergesort, GEMM) one
// asynchronous interface over every SSD-management scheme the paper
// compares, so the application code is identical and only the storage
// backend changes:
//
//	CAM   — prefetch/write_back batches, direct SSD⇄GPU data plane
//	BaM   — synchronous GPU-managed gather/scatter (pins SMs)
//	SPDK  — user-space driver + host staging + cudaMemcpyAsync
//	GDS   — cuFile-style reads with the heavy fs/NVFS software path
//	POSIX — kernel pread/pwrite + staging + cudaMemcpyAsync
//
// All backends expose the same striped flat byte space over the SSD array,
// so a dataset written through one layout helper is readable by the
// matching backend.
package xfer

import (
	"fmt"
	"slices"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gds"
	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
)

// Handle is an in-flight asynchronous transfer.
type Handle interface {
	// Wait blocks p until the transfer completes.
	Wait(p *sim.Proc)
}

// Backend is the uniform storage interface.
type Backend interface {
	// Name identifies the scheme in reports.
	Name() string
	// BlockBytes is the backend's transfer granularity; offsets and
	// lengths must be multiples of it.
	BlockBytes() int64
	// Alloc returns a GPU buffer usable as a transfer target.
	Alloc(name string, n int64) *gpu.Buffer
	// StartRead begins an asynchronous read of n bytes at byte offset
	// off into dst at dstOff.
	StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle
	// StartWrite begins an asynchronous write.
	StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle
}

// Read performs a synchronous read on any backend.
func Read(p *sim.Proc, b Backend, off, n int64, dst *gpu.Buffer, dstOff int64) {
	b.StartRead(p, off, n, dst, dstOff).Wait(p)
}

// Write performs a synchronous write on any backend.
func Write(p *sim.Proc, b Backend, off, n int64, src *gpu.Buffer, srcOff int64) {
	b.StartWrite(p, off, n, src, srcOff).Wait(p)
}

// sigHandle is a transfer's completion signal as its Handle. Backends carve
// them from a FreeList and never recycle one: nothing says when, or how many
// times, a Handle is waited on. The machine under it counts what it lost (a
// BaM batch its blocks, a staged transfer its granules, a GDS transfer its
// commands) and sets errs before the signal fires. Neither BaM
// (bam.Config.CmdTimeout) nor the kernel stack has a retry path, and the
// SPDK driver's retries cannot bring back a dead device, so Wait panics on a
// transfer with holes rather than hand its buffer back as if it were
// filled, as CAM's Batch.Wait does; lost formats that panic from errs and
// units.
type sigHandle struct {
	done        sim.Signal
	units, errs int
	lost        string
}

// BatchDone implements bam.BatchSink and gds.Sink (engine-callback context).
func (h *sigHandle) BatchDone(errs int) {
	h.errs = errs
	h.done.Fire()
}

func (h *sigHandle) Wait(p *sim.Proc) {
	p.Wait(&h.done)
	if h.errs > 0 {
		panic(fmt.Sprintf(h.lost, h.errs, h.units))
	}
}

// carve takes the handle of a new transfer on e from its backend's slab.
func carve(fl *sim.FreeList[sigHandle], e *sim.Engine, name string) *sigHandle {
	h := fl.Get()
	h.done.Init(e, name)
	return h
}

// doneHandle is the Handle of a transfer with nothing to move.
type doneHandle struct{}

func (doneHandle) Wait(*sim.Proc) {}

// checkAligned validates an (off, n) pair against granularity g.
func checkAligned(name string, off, n, g int64) {
	if n <= 0 || off < 0 || off%g != 0 || n%g != 0 {
		panic(fmt.Sprintf("xfer(%s): off=%d n=%d must be positive multiples of %d", name, off, n, g))
	}
}

// blockRange expands a byte range into consecutive block ids.
func blockRange(off, n, g int64) []uint64 {
	blocks := make([]uint64, n/g)
	first := uint64(off / g)
	for i := range blocks {
		blocks[i] = first + uint64(i)
	}
	return blocks
}

// ----- CAM -----

// CAMBackend adapts a cam.Manager.
type CAMBackend struct {
	M *cam.Manager
}

// NewCAM builds a CAM backend over the environment with the given
// granularity (one CAM block per granule).
func NewCAM(env *platform.Env, blockBytes int64, tune func(*cam.Config)) *CAMBackend {
	cfg := cam.DefaultConfig(len(env.Devs))
	cfg.BlockBytes = blockBytes
	if tune != nil {
		tune(&cfg)
	}
	m := cam.New(env.E, cfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
	return &CAMBackend{M: m}
}

func (b *CAMBackend) Name() string      { return "CAM" }
func (b *CAMBackend) BlockBytes() int64 { return b.M.BlockBytes() }

func (b *CAMBackend) Alloc(name string, n int64) *gpu.Buffer { return b.M.Alloc(name, n) }

// StartRead publishes one prefetch batch covering the range; the batch is
// the handle.
func (b *CAMBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("cam", off, n, b.BlockBytes())
	blocks := blockRange(off, n, b.BlockBytes())
	return b.M.Prefetch(p, blocks, dst, dstOff)
}

// StartWrite publishes one write_back batch covering the range.
func (b *CAMBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("cam", off, n, b.BlockBytes())
	blocks := blockRange(off, n, b.BlockBytes())
	return b.M.WriteBack(p, blocks, src, srcOff)
}

// ----- BaM -----

// BaMBackend adapts a bam.System through its asynchronous batch machines;
// every operation still pins the calibrated SM share while it runs.
type BaMBackend struct {
	env   *platform.Env
	arr   *bam.Array
	g     int64
	sinks sim.FreeList[sigHandle]
}

// carve takes the handle of a new batch of the given block count.
func (b *BaMBackend) carve(blocks int) *sigHandle {
	h := carve(&b.sinks, b.env.E, "bamxfer")
	h.units, h.lost = blocks, "xfer(bam): %d of %d blocks failed; BaM has no retry path"
	return h
}

// NewBaM builds a BaM backend with the given granularity.
func NewBaM(env *platform.Env, sys *bam.System, blockBytes int64) *BaMBackend {
	return &BaMBackend{env: env, arr: sys.NewArray(blockBytes), g: blockBytes}
}

func (b *BaMBackend) Name() string                           { return "BaM" }
func (b *BaMBackend) BlockBytes() int64                      { return b.g }
func (b *BaMBackend) Alloc(name string, n int64) *gpu.Buffer { return b.env.GPU.Alloc(name, n) }

func (b *BaMBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("bam", off, n, b.g)
	h := b.carve(int(n / b.g))
	b.arr.Start(nvme.OpRead, blockRange(off, n, b.g), dst, dstOff, nil, h)
	return h
}

func (b *BaMBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("bam", off, n, b.g)
	h := b.carve(int(n / b.g))
	b.arr.Start(nvme.OpWrite, blockRange(off, n, b.g), src, srcOff, nil, h)
	return h
}

// ----- staged backends: SPDK and POSIX -----

// staged is the machine the SPDK and POSIX backends share: a transfer is a
// list of (block id, buffer offset) granules dispatched in order onto a
// pool of helpers, whose size bounds the granules in flight — the classic
// pattern of keeping several staged transfers going per direction. Each
// helper owns its host buffer, so concurrent granules never share one.
// Exactly one of drv and stack is set: the SSD leg of the helpers.
type staged struct {
	env   *platform.Env
	tag   string // scheme name in panics
	g     int64
	drv   *spdk.Driver
	stack *oskernel.Stack
	pool  *sim.Store[*helper]
	freeX sim.FreeList[stagedXfer]
	sigs  sim.FreeList[sigHandle]
	lost  string // the handles' panic
}

// newStaged builds the shared machine; why says in the handles' panic why a
// lost granule stays lost.
func newStaged(env *platform.Env, tag string, blockBytes int64, why string) staged {
	if blockBytes <= 0 || blockBytes%nvme.LBASize != 0 {
		panic(fmt.Sprintf("xfer(%s): granule %d must be a positive multiple of %d", tag, blockBytes, nvme.LBASize))
	}
	return staged{env: env, tag: tag, g: blockBytes, pool: sim.NewStore[*helper](env.E, tag+".helpers"),
		lost: "xfer(" + tag + "): %d of %d granules failed; " + why}
}

func (s *staged) BlockBytes() int64                      { return s.g }
func (s *staged) Alloc(name string, n int64) *gpu.Buffer { return s.env.GPU.Alloc(name, n) }

// start launches one transfer: granule i is blocks[i], at buffer offset
// off + i*BlockBytes or at offs[i] when offs is non-nil. It snapshots both
// into a pooled transfer machine (whose slices keep their capacity across
// reuse), so the caller's slices are free again when it returns.
func (s *staged) start(read bool, blocks []uint64, buf *gpu.Buffer, off int64, offs []int64) Handle {
	if offs != nil {
		buf.CheckBlocks(len(blocks), offs, s.g)
	}
	if len(blocks) == 0 {
		return doneHandle{}
	}
	sig := carve(&s.sigs, s.env.E, s.tag)
	sig.units, sig.lost = len(blocks), s.lost
	x := s.freeX.Get()
	x.s, x.read, x.buf, x.sig = s, read, buf, sig
	x.next, x.remaining = 0, len(blocks)
	x.blocks = append(x.blocks[:0], blocks...)
	// A list's offsets are copied; a range's are its stride, filled in.
	x.offs = append(slices.Grow(x.offs[:0], len(blocks)), offs...)
	for i := len(offs); i < len(blocks); i++ {
		x.offs = append(x.offs, off+int64(i)*s.g)
	}
	s.pool.GetCallback(x)
	return sig
}

// stagedXfer dispatches one transfer's granules onto pooled helpers as
// they free up, in granule order.
type stagedXfer struct {
	s         *staged
	read      bool
	buf       *gpu.Buffer
	blocks    []uint64
	offs      []int64
	next      int
	remaining int
	sig       *sigHandle
}

// StoreItem receives a free helper from the pool and starts the next
// granule on it (engine-callback context).
func (x *stagedXfer) StoreItem(h *helper, ok bool) {
	if !ok {
		panic("xfer: helper pool closed mid-transfer")
	}
	i := x.next
	x.next++
	h.move(x, x.blocks[i], x.offs[i])
	if x.next < len(x.blocks) {
		x.s.pool.GetCallback(x)
	}
}

// helper phases.
const (
	hMoved  uint8 = iota // the SSD leg is done
	hCopied              // the staging copy is done
)

// helper walks one granule at a time through its host buffer, as the
// synchronous worker of a staged flow does: a read runs the SSD leg into the
// buffer, then one staging memcpy to the GPU; a write runs the memcpy first,
// then the SSD leg. Only the SSD leg depends on the backend: one SPDK
// command batch, or one kernel-stack Range. A granule any of whose commands
// failed is lost for its transfer's Wait.
type helper struct {
	s      *staged
	host   *hostmem.Buffer
	x      *stagedXfer // the transfer of the granule in flight
	blk    uint64
	bufOff int64
	phase  uint8
	cmds   spdk.Batch
	io     oskernel.Range
}

// move starts granule blk of x, at bufOff in its buffer (engine-callback
// context).
func (h *helper) move(x *stagedXfer, blk uint64, bufOff int64) {
	h.x, h.blk, h.bufOff = x, blk, bufOff
	if x.read {
		h.ssd(nvme.OpRead)
		return
	}
	// Write: stage GPU → host first (one DRAM write crossing + one memcpy).
	h.stage(h.host.Payload(), 0, x.buf.Payload(), bufOff)
}

// ssd moves the granule between the SSD array and the host buffer; Run
// resumes in hMoved once its last command has completed.
func (h *helper) ssd(op nvme.Opcode) {
	s := h.s
	h.phase = hMoved
	if s.stack != nil {
		s.stack.Start(&h.io, op, int64(h.blk)*s.g, h.host.Payload(), 0, s.g)
		h.io.Done.WaitCallback(0, h)
		return
	}
	// SPDK: granules stripe round-robin across the devices; the granule
	// moves on at the latest instant among its commands.
	nd := uint64(len(s.env.Devs))
	h.cmds.Open(s.drv, h)
	h.cmds.Add(op, int(h.blk%nd), h.blk/nd*uint64(s.g/nvme.LBASize), s.g, h.host.Addr)
	h.cmds.Close()
}

// stage is the staging memcpy (one DRAM crossing); Run resumes in hCopied
// when the copy engine finishes.
func (h *helper) stage(dst *mem.Payload, dstOff int64, src *mem.Payload, srcOff int64) {
	env, g := h.s.env, h.s.g
	env.HM.ReserveTraffic(g)
	end := env.CE.ReserveCopy(g)
	mem.PayloadCopy(dst, dstOff, src, srcOff, g)
	h.phase = hCopied
	env.E.ScheduleCallback(end-env.E.Now(), h)
}

// Run advances the granule one phase (engine-callback context).
func (h *helper) Run() {
	read := h.x.read
	switch h.phase {
	case hMoved:
		if !read {
			h.finish()
			return
		}
		// Read: stage host → GPU (one DRAM read crossing + one memcpy).
		h.stage(h.x.buf.Payload(), h.bufOff, h.host.Payload(), 0)

	case hCopied:
		if read {
			h.finish()
			return
		}
		h.ssd(nvme.OpWrite)
	}
}

// finish returns the helper to the pool, first losing its granule if a
// kernel stripe or an SPDK command of it failed; the last granule completes
// the transfer (engine-callback context).
func (h *helper) finish() {
	x := h.x
	if h.io.Status != nvme.StatusSuccess || h.cmds.Failed > 0 {
		x.sig.errs++
	}
	h.x = nil
	x.s.pool.Put(h)
	x.remaining--
	if x.remaining == 0 {
		sig := x.sig
		x.sig, x.buf = nil, nil
		x.s.freeX.Put(x)
		sig.done.Fire()
	}
}

// SPDKBackend adapts the classic SPDK flow: user-space driver, host
// staging buffer, cudaMemcpyAsync.
type SPDKBackend struct {
	staged
}

// NewSPDK builds the backend; granules are striped across devices at
// blockBytes granularity. helpers bounds concurrent granules in flight.
func NewSPDK(env *platform.Env, blockBytes int64, helpers int) *SPDKBackend {
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (len(env.Devs)+1)/2)
	d.Start()
	b := &SPDKBackend{newStaged(env, "spdk", blockBytes, "the driver's retries did not recover them")}
	b.drv = d
	if helpers <= 0 {
		helpers = 4
	}
	for i := 1; i <= helpers; i++ {
		b.pool.Put(&helper{s: &b.staged, host: env.HM.Alloc(fmt.Sprintf("spdk.staging.%d", i), blockBytes)})
	}
	return b
}

func (b *SPDKBackend) Name() string { return "SPDK" }

func (b *SPDKBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("spdk", off, n, b.g)
	return b.start(true, blockRange(off, n, b.g), dst, dstOff, nil)
}

func (b *SPDKBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("spdk", off, n, b.g)
	return b.start(false, blockRange(off, n, b.g), src, srcOff, nil)
}

// StartGatherList stages each listed block through the helper pool.
func (b *SPDKBackend) StartGatherList(p *sim.Proc, blocks []uint64, dst *gpu.Buffer, offs []int64) Handle {
	return b.start(true, blocks, dst, 0, offs)
}

// StartScatterList stages each listed block in the write direction.
func (b *SPDKBackend) StartScatterList(p *sim.Proc, blocks []uint64, src *gpu.Buffer, offs []int64) Handle {
	return b.start(false, blocks, src, 0, offs)
}

// ----- GDS -----

// GDSBackend adapts the gds.Driver.
type GDSBackend struct {
	env  *platform.Env
	d    *gds.Driver
	g    int64
	sigs sim.FreeList[sigHandle]
}

// carve takes the handle of a new transfer of the given block count; the
// driver's io machine counts the commands it lost.
func (b *GDSBackend) carve(blocks int) *sigHandle {
	h := carve(&b.sigs, b.env.E, "gdsxfer")
	h.units, h.lost = blocks, "xfer(gds): %d command(s) of a %d-block transfer failed; the driver's retries did not recover them"
	return h
}

// NewGDS builds the backend.
func NewGDS(env *platform.Env, blockBytes int64) *GDSBackend {
	d := gds.New(env.E, env.HM, env.Space, env.Devs)
	d.Start()
	return &GDSBackend{env: env, d: d, g: blockBytes}
}

func (b *GDSBackend) Name() string                           { return "GDS" }
func (b *GDSBackend) BlockBytes() int64                      { return b.g }
func (b *GDSBackend) Alloc(name string, n int64) *gpu.Buffer { return b.env.GPU.Alloc(name, n) }

func (b *GDSBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("gds", off, n, b.g)
	h := b.carve(int(n / b.g))
	b.d.ReadAsync(off, n, dst.Addr+mem.Addr(dstOff), h)
	return h
}

func (b *GDSBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("gds", off, n, b.g)
	h := b.carve(int(n / b.g))
	b.d.WriteAsync(off, n, src.Addr+mem.Addr(srcOff), h)
	return h
}

// ----- POSIX -----

// POSIXBackend is the traditional flow: kernel pread/pwrite into host
// memory plus cudaMemcpyAsync staging to the GPU, from the multi-threaded
// worker pool a traditional implementation uses.
type POSIXBackend struct {
	staged
}

// NewPOSIX builds the backend over a RAID0 kernel stack.
func NewPOSIX(env *platform.Env, blockBytes int64, helpers int) *POSIXBackend {
	st := oskernel.NewStack(env.E, oskernel.POSIX, oskernel.DefaultConfig(oskernel.POSIX), env.HM, env.Devs)
	b := &POSIXBackend{
		staged: newStaged(env, "posix", blockBytes, "the kernel stack has no retry path"),
	}
	b.stack = st
	if helpers <= 0 {
		helpers = 2
	}
	for i := 0; i < helpers; i++ {
		hb := env.HM.Alloc(fmt.Sprintf("posix.helper%d", i), blockBytes)
		b.pool.Put(&helper{s: &b.staged, host: hb})
	}
	return b
}

func (b *POSIXBackend) Name() string { return "POSIX" }

func (b *POSIXBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("posix", off, n, b.g)
	return b.start(true, blockRange(off, n, b.g), dst, dstOff, nil)
}

func (b *POSIXBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("posix", off, n, b.g)
	return b.start(false, blockRange(off, n, b.g), src, srcOff, nil)
}
