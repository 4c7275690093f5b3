// Package gpu models an A100-class GPU at the granularity the paper's
// arguments need: an array of streaming multiprocessors whose resident
// thread slots are a shared resource, a compute-kernel cost model, and HBM
// device memory with real backing bytes that NVMe controllers can DMA into
// directly (the GDRCopy / nvidia_p2p_get_pages data plane).
//
// The central mechanic is thread-slot contention: BaM-style I/O submission
// pins hundreds of thousands of resident threads to keep SSDs saturated,
// which starves compute kernels of SMs and serializes I/O with computation
// (the paper's Issue 3). CAM pins none.
package gpu

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/mem"
	"camsim/internal/sim"
	"camsim/internal/trace"
)

// Config describes the device. Its SM array and peak compute rate are
// calib rows (GPUSMs, GPUThreadsPerSM, GPUTFLOPS).
type Config struct {
	// MemBytes is the HBM capacity.
	MemBytes int64
	// KernelLaunchOverhead is the host-side cost per kernel launch.
	KernelLaunchOverhead sim.Time
	// HBMWindow places this device's memory in the platform physical
	// map; zero uses the default window. Multi-GPU platforms give each
	// device a distinct window (see WindowForInstance).
	HBMWindow mem.Addr
}

// WindowForInstance returns a non-overlapping HBM window base for the i-th
// GPU on a platform (16 TiB stride leaves room for any HBM size).
func WindowForInstance(i int) mem.Addr {
	return HBMWindowBase + mem.Addr(i)*0x0000_1000_0000_0000
}

// DefaultConfig matches the paper's 80 GB PCIe A100.
func DefaultConfig() Config {
	return Config{
		MemBytes:             calib.GPUMemBytes(),
		KernelLaunchOverhead: calib.GPUKernelLaunch(),
	}
}

// HBMWindowBase is where GPU memory lives in the simulated physical map,
// disjoint from host DRAM.
const HBMWindowBase mem.Addr = 0x2000_0000_0000_0000

// GPU is one device instance.
type GPU struct {
	Name string
	cfg  Config
	e    *sim.Engine

	// threads is the pool of resident thread slots across all SMs; both
	// compute kernels and (for BaM) I/O submission warps draw from it.
	threads *sim.Resource

	arena     *mem.Arena
	space     *mem.Space
	allocated int64
	tracer    *trace.Tracer
}

// SetTracer attaches an event tracer (nil disables tracing).
func (g *GPU) SetTracer(t *trace.Tracer) { g.tracer = t }

// New creates a GPU and claims its HBM window in the address space.
func New(e *sim.Engine, name string, cfg Config, space *mem.Space) *GPU {
	window := cfg.HBMWindow
	if window == 0 {
		window = HBMWindowBase
	}
	return &GPU{
		Name:    name,
		cfg:     cfg,
		e:       e,
		threads: e.NewResource(name+".threads", totalThreads()),
		arena:   mem.NewArena(name+".hbm", window, cfg.MemBytes),
		space:   space,
	}
}

// TotalThreads reports the total resident thread capacity.
func (g *GPU) TotalThreads() int64 { return totalThreads() }

func totalThreads() int64 { return calib.GPUSMs() * calib.GPUThreadsPerSM() }

// FreeThreads reports currently unoccupied thread slots.
func (g *GPU) FreeThreads() int64 { return g.threads.Available() }

// SMUtilization reports the instantaneous fraction of thread slots held.
func (g *GPU) SMUtilization() float64 {
	return float64(g.threads.InUse()) / float64(g.TotalThreads())
}

// MeanSMUtilization reports the time-averaged occupancy since t=0.
func (g *GPU) MeanSMUtilization() float64 { return g.threads.MeanUtilization() }

// Buffer is device memory registered for DMA. Its content is a payload:
// transfers into and out of it move references, and real bytes exist only
// after a consumer calls Bytes.
type Buffer struct {
	Name   string
	Addr   mem.Addr
	Pinned bool
	size   int64
	pay    *mem.Payload
	g      *GPU
}

// Alloc reserves device memory (cudaMalloc analogue).
func (g *GPU) Alloc(name string, n int64) *Buffer {
	return g.alloc(name, n, false)
}

// AllocPinned reserves device memory registered for peer-to-peer DMA
// (the CAM_alloc / GDRCopy path). In the simulation every HBM range is
// physically reachable, but drivers enforce the pinned contract the way
// real ones do.
func (g *GPU) AllocPinned(name string, n int64) *Buffer {
	return g.alloc(name, n, true)
}

func (g *GPU) alloc(name string, n int64, pinned bool) *Buffer {
	if g.allocated+n > g.cfg.MemBytes {
		panic(fmt.Sprintf("gpu: out of memory allocating %q (%d bytes)", name, n))
	}
	pay := mem.NewPayload(n, mem.DefaultEager())
	addr := g.arena.Alloc(n, 4096)
	g.space.RegisterPayload(g.Name+"."+name, addr, pay, mem.GPUHBM)
	g.allocated += n
	return &Buffer{Name: name, Addr: addr, Pinned: pinned, size: n, pay: pay, g: g}
}

// Free releases the buffer (cudaFree / CAM_free analogue) and recycles its
// payload — chunk references and any materialized backing — for future
// allocations on any GPU instance.
func (b *Buffer) Free() {
	b.g.space.Unregister(b.Addr)
	b.g.allocated -= b.size
	b.pay.Release()
	b.pay = nil
}

// Size reports the buffer length.
func (b *Buffer) Size() int64 { return b.size }

// CheckBlocks panics unless offs gives each of nblocks blocks its own
// in-bounds blockBytes-sized place in the buffer — the contract every
// backend's list batch enforces at submit.
func (b *Buffer) CheckBlocks(nblocks int, offs []int64, blockBytes int64) {
	if nblocks != len(offs) {
		panic(fmt.Sprintf("gpu: list batch of %d blocks has %d offsets", nblocks, len(offs)))
	}
	for _, off := range offs {
		if off < 0 || off+blockBytes > b.size {
			panic(fmt.Sprintf("gpu: list batch entry at offset %d does not fit in buffer %q", off, b.Name))
		}
	}
}

// Payload exposes the buffer's content for reference-passing transfers.
func (b *Buffer) Payload() *mem.Payload { return b.pay }

// Bytes materializes the buffer for good and returns its backing slice:
// every later transfer into the buffer lands in it, and writes through the
// slice become the buffer's content.
func (b *Buffer) Bytes() []byte { return b.pay.Bytes() }

// MakeEager is Bytes, under the name queue rings and control regions parsed
// by device models are set up with.
func (b *Buffer) MakeEager() []byte { return b.pay.Bytes() }

// PinThreadsCallback occupies n thread slots (clamped to capacity) until
// UnpinThreads(held): it reports the clamped slot count and whether it was
// acquired inline; if not, cb runs once the slots are held. BaM's
// submission/polling warps use this; the paper's Figure 4 is the resulting
// occupancy.
func (g *GPU) PinThreadsCallback(n int64, cb sim.Callback) (held int64, acquired bool) {
	if n > g.TotalThreads() {
		n = g.TotalThreads()
	}
	if n <= 0 {
		return 0, true
	}
	return n, g.threads.AcquireCallback(n, cb)
}

// UnpinThreads releases slots held via PinThreadsCallback.
func (g *GPU) UnpinThreads(n int64) {
	if n > 0 {
		g.threads.Release(n)
	}
}

// KernelSpec describes one compute kernel launch.
type KernelSpec struct {
	Name string
	// Threads is the kernel's maximum useful parallelism in resident
	// threads (grid size × block size, clamped to device capacity).
	Threads int64
	// FullOccupancyTime is how long the kernel runs when granted all the
	// threads it asked for; with fewer threads it runs proportionally
	// longer (elastic model).
	FullOccupancyTime sim.Time
	// MinThreads is the smallest grant the kernel can start with
	// (defaults to one 64-thread block).
	MinThreads int64
}

// RunKernel executes a compute kernel with elastic SM allocation: it takes
// whatever thread slots are free (at least MinThreads, blocking for them if
// necessary) and runs proportionally longer when it gets fewer than
// Threads. This reproduces both full-speed compute on an idle GPU and the
// serialization that happens when I/O warps hold the device.
func (g *GPU) RunKernel(p *sim.Proc, spec KernelSpec) {
	want := spec.Threads
	if want <= 0 {
		want = 64
	}
	if want > g.TotalThreads() {
		want = g.TotalThreads()
	}
	min := spec.MinThreads
	if min <= 0 {
		min = 64
	}
	if min > want {
		min = want
	}
	if g.cfg.KernelLaunchOverhead > 0 {
		p.Sleep(g.cfg.KernelLaunchOverhead)
	}
	// Take the free slots now, up to want, or block until the minimum is
	// available and then hold what the admitting release leaves over — a
	// real scheduler would dispatch the waiting blocks onto SMs as they
	// drain.
	grant := g.threads.AcquireUpTo(p, min, want)
	dur := sim.Time(float64(spec.FullOccupancyTime) * float64(want) / float64(grant))
	g.tracer.Emit(trace.KernelStart, g.Name, spec.Name, grant)
	p.Sleep(dur)
	g.threads.Release(grant)
	g.tracer.Emit(trace.KernelEnd, g.Name, spec.Name, grant)
}

// ComputeTime converts a FLOP count into full-occupancy kernel time under
// the configured peak rate and an efficiency factor in (0,1].
func (g *GPU) ComputeTime(flops float64, efficiency float64) sim.Time {
	if efficiency <= 0 || efficiency > 1 {
		panic("gpu: efficiency must be in (0,1]")
	}
	sec := flops / (calib.GPUTFLOPS() * 1e12 * efficiency)
	return sim.Time(sec * float64(sim.Second))
}
