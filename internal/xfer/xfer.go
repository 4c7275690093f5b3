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

// sigHandle wraps a signal as a Handle.
type sigHandle struct{ s *sim.Signal }

func (h sigHandle) Wait(p *sim.Proc) { p.Wait(h.s) }

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

type camHandle struct {
	m *cam.Manager
	b *cam.Batch
}

func (h camHandle) Wait(p *sim.Proc) { h.m.Synchronize(p, h.b) }

// StartRead publishes one prefetch batch covering the range.
func (b *CAMBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("cam", off, n, b.BlockBytes())
	batch := b.M.Prefetch(p, blockRange(off, n, b.BlockBytes()), dst, dstOff)
	return camHandle{b.M, batch}
}

// StartWrite publishes one write_back batch covering the range.
func (b *CAMBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("cam", off, n, b.BlockBytes())
	batch := b.M.WriteBack(p, blockRange(off, n, b.BlockBytes()), src, srcOff)
	return camHandle{b.M, batch}
}

// ----- BaM -----

// BaMBackend adapts a bam.System through its asynchronous batch machines;
// every operation still pins the calibrated SM share while it runs.
type BaMBackend struct {
	env   *platform.Env
	arr   *bam.Array
	g     int64
	freeS []*bamSink
}

// bamSink fires a transfer's completion signal when its batch machine
// finishes.
type bamSink struct {
	b   *BaMBackend
	sig *sim.Signal
}

// BatchDone implements bam.BatchSink (engine-callback context).
//
//camlint:hotpath
func (k *bamSink) BatchDone(errs int) {
	sig := k.sig
	k.sig = nil
	k.b.freeS = append(k.b.freeS, k) //camlint:allow hotalloc -- amortized free-list growth
	sig.Fire()
}

func (b *BaMBackend) getSink(sig *sim.Signal) *bamSink {
	if n := len(b.freeS); n > 0 {
		k := b.freeS[n-1]
		b.freeS = b.freeS[:n-1]
		k.sig = sig
		return k
	}
	return &bamSink{b: b, sig: sig}
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
	s := b.env.E.NewSignal("bamxfer")
	b.arr.GatherAsync(blockRange(off, n, b.g), dst, dstOff, b.getSink(s))
	return sigHandle{s}
}

func (b *BaMBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("bam", off, n, b.g)
	s := b.env.E.NewSignal("bamxfer")
	b.arr.ScatterAsync(blockRange(off, n, b.g), src, srcOff, b.getSink(s))
	return sigHandle{s}
}

// ----- SPDK (staged) -----

// SPDKBackend adapts the classic SPDK flow: a pool of staged-I/O helpers
// provides bounded concurrency (each helper owns its staging buffer, so
// concurrent granules never share staging memory).
type SPDKBackend struct {
	env  *platform.Env
	d    *spdk.Driver
	pool *sim.Store[*spdk.StagedGPUIO]
	g    int64

	freeX []*spdkXfer
	freeG []*spdkGranule
}

// NewSPDK builds the backend; granules are striped across devices at
// blockBytes granularity. helpers bounds concurrent granules in flight.
func NewSPDK(env *platform.Env, blockBytes int64, helpers int) *SPDKBackend {
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, (len(env.Devs)+1)/2)
	d.Start()
	b := &SPDKBackend{
		env:  env,
		d:    d,
		pool: sim.NewStore[*spdk.StagedGPUIO](env.E, "spdk.helpers"),
		g:    blockBytes,
	}
	if helpers <= 0 {
		helpers = 4
	}
	for i := 0; i < helpers; i++ {
		b.pool.Put(spdk.NewStagedGPUIO(d, env.CE, blockBytes))
	}
	return b
}

func (b *SPDKBackend) Name() string                           { return "SPDK" }
func (b *SPDKBackend) BlockBytes() int64                      { return b.g }
func (b *SPDKBackend) Alloc(name string, n int64) *gpu.Buffer { return b.env.GPU.Alloc(name, n) }

// locate stripes granules across devices.
func (b *SPDKBackend) locate(off int64) (dev int, slba uint64) {
	granule := off / b.g
	nd := int64(len(b.env.Devs))
	dev = int(granule % nd)
	devOff := (granule / nd) * b.g
	return dev, uint64(devOff / 512)
}

func (b *SPDKBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	return b.start(p, off, n, dst, dstOff, true)
}

func (b *SPDKBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	return b.start(p, off, n, src, srcOff, false)
}

// start launches a transfer as a callback state machine: granules proceed
// in parallel, bounded by the helper pool — the classic SPDK app pattern of
// keeping several staged transfers in flight per direction.
func (b *SPDKBackend) start(p *sim.Proc, off, n int64, buf *gpu.Buffer, bufOff int64, read bool) Handle {
	checkAligned("spdk", off, n, b.g)
	s := b.env.E.NewSignal("spdkxfer")
	var x *spdkXfer
	if k := len(b.freeX); k > 0 {
		x = b.freeX[k-1]
		b.freeX = b.freeX[:k-1]
	} else {
		x = &spdkXfer{b: b}
	}
	*x = spdkXfer{b: b, read: read, off: off, buf: buf, bufOff: bufOff,
		granules: n / b.g, remaining: n / b.g, sig: s}
	b.pool.GetCallback(x)
	return sigHandle{s}
}

// spdkXfer dispatches one transfer's granules onto pooled staged helpers
// as they free up, in granule order. A list transfer (blocks non-nil)
// names each granule's block id and buffer offset explicitly; a range
// transfer derives both from the contiguous (off, bufOff) pair.
type spdkXfer struct {
	b         *SPDKBackend
	read      bool
	off       int64
	buf       *gpu.Buffer
	bufOff    int64
	blocks    []uint64
	offs      []int64
	next      int64
	granules  int64
	remaining int64
	sig       *sim.Signal
}

// StoreItem receives a free helper from the pool and starts the next
// granule on it (engine-callback context).
//
//camlint:hotpath
func (x *spdkXfer) StoreItem(st *spdk.StagedGPUIO, ok bool) {
	if !ok {
		panic("xfer(spdk): helper pool closed mid-transfer")
	}
	b := x.b
	idx := x.next
	x.next++
	var g *spdkGranule
	if k := len(b.freeG); k > 0 {
		g = b.freeG[k-1]
		b.freeG = b.freeG[:k-1]
	} else {
		g = &spdkGranule{} //camlint:allow hotalloc -- pool miss grows to the window high-water mark, then reuses
	}
	g.x, g.st = x, st
	var dev int
	var slba uint64
	var bufOff int64
	if x.blocks != nil {
		dev, slba = b.locateBlock(x.blocks[idx])
		bufOff = x.offs[idx]
	} else {
		done := idx * b.g
		dev, slba = b.locate(x.off + done)
		bufOff = x.bufOff + done
	}
	if x.read {
		st.ReadToGPUAsync(dev, slba, x.buf, bufOff, b.g, g)
	} else {
		st.WriteFromGPUAsync(dev, slba, x.buf, bufOff, b.g, g)
	}
	if x.next < x.granules {
		b.pool.GetCallback(x)
	}
}

// spdkGranule rides one granule through its staged helper and returns the
// helper to the pool on completion.
type spdkGranule struct {
	x  *spdkXfer
	st *spdk.StagedGPUIO
}

// Run is the granule-complete continuation (engine-callback context).
//
//camlint:hotpath
func (g *spdkGranule) Run() {
	x, st := g.x, g.st
	g.x, g.st = nil, nil
	x.b.freeG = append(x.b.freeG, g) //camlint:allow hotalloc -- amortized free-list growth
	x.b.pool.Put(st)
	x.remaining--
	if x.remaining == 0 {
		sig := x.sig
		x.sig, x.buf = nil, nil
		x.blocks, x.offs = nil, nil
		x.b.freeX = append(x.b.freeX, x) //camlint:allow hotalloc -- amortized free-list growth
		sig.Fire()
	}
}

// ----- GDS -----

// GDSBackend adapts the gds.Driver.
type GDSBackend struct {
	env *platform.Env
	d   *gds.Driver
	g   int64
}

// NewGDS builds the backend.
func NewGDS(env *platform.Env, blockBytes int64) *GDSBackend {
	d := gds.New(env.E, gds.DefaultConfig(), env.HM, env.Space, env.Devs)
	d.Start()
	return &GDSBackend{env: env, d: d, g: blockBytes}
}

func (b *GDSBackend) Name() string                           { return "GDS" }
func (b *GDSBackend) BlockBytes() int64                      { return b.g }
func (b *GDSBackend) Alloc(name string, n int64) *gpu.Buffer { return b.env.GPU.Alloc(name, n) }

func (b *GDSBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	checkAligned("gds", off, n, b.g)
	s := b.env.E.NewSignal("gdsxfer")
	b.d.ReadAsync(off, n, dst.Addr+mem.Addr(dstOff), s)
	return sigHandle{s}
}

func (b *GDSBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	checkAligned("gds", off, n, b.g)
	s := b.env.E.NewSignal("gdsxfer")
	b.d.WriteAsync(off, n, src.Addr+mem.Addr(srcOff), s)
	return sigHandle{s}
}

// ----- POSIX -----

// POSIXBackend is the traditional flow: kernel pread/pwrite into host
// memory plus cudaMemcpyAsync staging to the GPU.
type POSIXBackend struct {
	env   *platform.Env
	stack *oskernel.Stack
	pool  *sim.Store[*posixHelper]
	g     int64

	freeX []*posixXfer
	freeG []*posixGranule
}

type posixHelper struct {
	host *hostmem.Buffer
}

// NewPOSIX builds the backend over a RAID0 kernel stack.
func NewPOSIX(env *platform.Env, blockBytes int64, helpers int) *POSIXBackend {
	st := oskernel.NewStack(env.E, oskernel.POSIX, oskernel.DefaultConfig(oskernel.POSIX), env.HM, env.Devs)
	b := &POSIXBackend{
		env:   env,
		stack: st,
		pool:  sim.NewStore[*posixHelper](env.E, "posix.helpers"),
		g:     blockBytes,
	}
	if helpers <= 0 {
		helpers = 2
	}
	for i := 0; i < helpers; i++ {
		hb := env.HM.Alloc(fmt.Sprintf("posix.helper%d", i), blockBytes)
		b.pool.Put(&posixHelper{host: hb})
	}
	return b
}

func (b *POSIXBackend) Name() string                           { return "POSIX" }
func (b *POSIXBackend) BlockBytes() int64                      { return b.g }
func (b *POSIXBackend) Alloc(name string, n int64) *gpu.Buffer { return b.env.GPU.Alloc(name, n) }

func (b *POSIXBackend) StartRead(p *sim.Proc, off, n int64, dst *gpu.Buffer, dstOff int64) Handle {
	return b.start(p, off, n, dst, dstOff, true)
}

func (b *POSIXBackend) StartWrite(p *sim.Proc, off, n int64, src *gpu.Buffer, srcOff int64) Handle {
	return b.start(p, off, n, src, srcOff, false)
}

// start issues granules in parallel, bounded by the helper-buffer pool —
// the multi-threaded pread/pwrite worker pool a traditional implementation
// uses — as a callback state machine.
func (b *POSIXBackend) start(p *sim.Proc, off, n int64, buf *gpu.Buffer, bufOff int64, read bool) Handle {
	checkAligned("posix", off, n, b.g)
	s := b.env.E.NewSignal("posixxfer")
	var x *posixXfer
	if k := len(b.freeX); k > 0 {
		x = b.freeX[k-1]
		b.freeX = b.freeX[:k-1]
	} else {
		x = &posixXfer{}
	}
	*x = posixXfer{b: b, read: read, off: off, buf: buf, bufOff: bufOff,
		granules: n / b.g, remaining: n / b.g, sig: s}
	b.pool.GetCallback(x)
	return sigHandle{s}
}

// posixXfer dispatches granules onto pooled helper buffers in order as
// they free up.
type posixXfer struct {
	b         *POSIXBackend
	read      bool
	off       int64
	buf       *gpu.Buffer
	bufOff    int64
	next      int64
	granules  int64
	remaining int64
	sig       *sim.Signal
}

// StoreItem receives a free helper buffer and starts the next granule
// (engine-callback context).
//
//camlint:hotpath
func (x *posixXfer) StoreItem(h *posixHelper, ok bool) {
	if !ok {
		panic("xfer(posix): helper pool closed mid-transfer")
	}
	b := x.b
	done := x.next * b.g
	x.next++
	var g *posixGranule
	if k := len(b.freeG); k > 0 {
		g = b.freeG[k-1]
		b.freeG = b.freeG[:k-1]
	} else {
		g = &posixGranule{} //camlint:allow hotalloc -- pool miss grows to the window high-water mark, then reuses
	}
	g.x, g.h = x, h
	g.off, g.bufOff = x.off+done, x.bufOff+done
	g.start()
	if x.next < x.granules {
		b.pool.GetCallback(x)
	}
}

// posixGranule phases.
const (
	pgSubmit uint8 = iota // submit the next stripe chunk
	pgWait                // wait for the next chunk completion
	pgCopied              // final (read) or initial (write) memcpy done
)

// posixGranule walks one granule through the kernel stack: for reads,
// stripe-chunked pread then one staging memcpy to the GPU; for writes, the
// memcpy first, then chunked pwrite. Chunks submit sequentially (the kernel
// path serializes them anyway) and their completions are reaped in order,
// mirroring the synchronous worker.
type posixGranule struct {
	x      *posixXfer
	h      *posixHelper
	off    int64
	bufOff int64
	phase  uint8
	reqs   []oskernel.Request
	idx    int
}

func (g *posixGranule) start() {
	b := g.x.b
	// Pre-build the stripe-boundary chunk list over the helper buffer.
	g.reqs = g.reqs[:0]
	op := nvme.OpRead
	if !g.x.read {
		op = nvme.OpWrite
	}
	off, hostPay := g.off, g.h.host.Payload()
	var hostOff int64
	for hostOff < b.g {
		chunk := b.stack.StripeBytes() - off%b.stack.StripeBytes()
		if chunk > b.g-hostOff {
			chunk = b.g - hostOff
		}
		g.reqs = append(g.reqs, oskernel.Request{Op: op, Offset: off, Pay: hostPay, PayOff: hostOff, N: chunk}) //camlint:allow hotalloc -- pooled granule retains reqs capacity across reuse
		off += chunk
		hostOff += chunk
	}
	g.idx = 0
	if g.x.read {
		g.phase = pgSubmit
		b.stack.SubmitAsync(&g.reqs[0], g)
		return
	}
	// Write: stage GPU → host first (one DRAM write crossing + one memcpy).
	b.env.HM.ReserveTraffic(b.g)
	end := b.env.CE.ReserveCopy(b.g)
	mem.PayloadCopy(g.h.host.Payload(), 0, g.x.buf.Payload(), g.bufOff, b.g)
	g.phase = pgCopied
	b.env.E.ScheduleCallback(end-b.env.E.Now(), g)
}

// Run advances the granule one phase (engine-callback context).
//
//camlint:hotpath
func (g *posixGranule) Run() {
	b := g.x.b
	switch g.phase {
	case pgSubmit: // chunk g.idx submitted
		g.idx++
		if g.idx < len(g.reqs) {
			b.stack.SubmitAsync(&g.reqs[g.idx], g)
			return
		}
		g.phase, g.idx = pgWait, 0
		g.reqs[0].Done.WaitCallback(0, g)

	case pgWait: // chunk g.idx completed
		g.idx++
		if g.idx < len(g.reqs) {
			g.reqs[g.idx].Done.WaitCallback(0, g)
			return
		}
		if !g.x.read {
			g.finish()
			return
		}
		// Read: stage host → GPU (one DRAM read crossing + one memcpy).
		b.env.HM.ReserveTraffic(b.g)
		end := b.env.CE.ReserveCopy(b.g)
		mem.PayloadCopy(g.x.buf.Payload(), g.bufOff, g.h.host.Payload(), 0, b.g)
		g.phase = pgCopied
		b.env.E.ScheduleCallback(end-b.env.E.Now(), g)

	case pgCopied:
		if g.x.read {
			g.finish()
			return
		}
		g.phase, g.idx = pgSubmit, 0
		b.stack.SubmitAsync(&g.reqs[0], g)
	}
}

func (g *posixGranule) finish() {
	x, h := g.x, g.h
	g.x, g.h = nil, nil
	x.b.freeG = append(x.b.freeG, g) //camlint:allow hotalloc -- amortized free-list growth
	x.b.pool.Put(h)
	x.remaining--
	if x.remaining == 0 {
		sig := x.sig
		x.sig, x.buf = nil, nil
		x.b.freeX = append(x.b.freeX, x) //camlint:allow hotalloc -- amortized free-list growth
		sig.Fire()
	}
}
