// Package gds models the NVIDIA GPUDirect Storage baseline the paper
// evaluates in the GEMM experiment: the data plane is direct (SSD DMA into
// GPU memory, no host staging), but every request funnels through a heavy
// software path — the EXT4 file system, NVFS management, and CUDA library
// bookkeeping — that the paper measures at about 70 % of total processing
// time. That software path is page-granular (the filesystem maps and pins
// each 4 KiB page), which is why GDS tops out near 0.8 GB/s on the paper's
// platform no matter how many SSDs sit behind it. Its costs are calib rows:
// GDSCallCost per call, GDSPageCost per page, over an EXT4-on-RAID0 stripe of
// calib.RAID0Stripe.
package gds

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/ssd"
)

// Driver is a GDS instance over a RAID0 array of SSDs. Internally it uses
// an spdk.Driver purely as the NVMe submission mechanism (the kernel NVMe
// driver with enough queues); the distinguishing costs are the software
// path in front of it.
type Driver struct {
	e    *sim.Engine
	nv   *spdk.Driver
	devs []*ssd.Device

	// fsBusyUntil serializes the per-page software path.
	fsBusyUntil sim.Time

	// freeIO recycles asynchronous io machines.
	freeIO sim.FreeList[ioMachine]
}

// New builds the driver; one backing NVMe thread is plenty because the
// software path is the bottleneck by an order of magnitude.
func New(e *sim.Engine, hm *hostmem.Memory, space *mem.Space, devs []*ssd.Device) *Driver {
	nv := spdk.New(e, spdk.DefaultConfig(), hm, space, devs, 1)
	return &Driver{e: e, nv: nv, devs: devs}
}

// Start launches the backing NVMe machinery.
func (d *Driver) Start() { d.nv.Start() }

// locate maps a file offset to (device, device LBA) under striping.
func (d *Driver) locate(off int64) (dev int, lba uint64) {
	sb := calib.RAID0Stripe()
	stripe := off / sb
	dev = int(stripe % int64(len(d.devs)))
	devStripe := stripe / int64(len(d.devs))
	devOff := devStripe*sb + off%sb
	return dev, uint64(devOff) / nvme.LBASize
}

// ReadAsync starts a cuFileRead-style read of n bytes at file offset off into
// GPU memory at dstAddr (must be GPU HBM). The software path walks every page
// before the hardware transfer is allowed to start; done fires once every
// NVMe command of the transfer has completed.
func (d *Driver) ReadAsync(off, n int64, dstAddr mem.Addr, done *sim.Signal) {
	d.ioAsync(nvme.OpRead, off, n, dstAddr, done)
}

// WriteAsync starts a cuFileWrite-style write from GPU memory.
func (d *Driver) WriteAsync(off, n int64, srcAddr mem.Addr, done *sim.Signal) {
	d.ioAsync(nvme.OpWrite, off, n, srcAddr, done)
}

// ioMachine runs one cuFileRead/Write as a callback state machine: the
// serialized software-path delay, then the stripe/MDTS-split hardware
// submissions with completion fan-in. Machines recycle through the driver's
// free list.
type ioMachine struct {
	d      *Driver
	op     nvme.Opcode
	off, n int64
	addr   mem.Addr
	fan    spdk.FanIn
	done   *sim.Signal
}

// ioAsync claims the software-path window at call time (the path's
// serialization point) and parks the machine until it closes.
func (d *Driver) ioAsync(op nvme.Opcode, off, n int64, addr mem.Addr, done *sim.Signal) {
	if n <= 0 || n%nvme.LBASize != 0 || off%nvme.LBASize != 0 {
		panic(fmt.Sprintf("gds: unaligned io off=%d n=%d", off, n))
	}
	// Per-call plus per-page serialized software path.
	pages := (n + 4095) / 4096
	cost := calib.GDSCallCost() + sim.Time(pages)*calib.GDSPageCost()
	start := d.e.Now()
	if d.fsBusyUntil > start {
		start = d.fsBusyUntil
	}
	end := start + cost
	d.fsBusyUntil = end

	m := d.freeIO.Get()
	m.d, m.op, m.off, m.n, m.addr, m.done = d, op, off, n, addr, done
	d.e.ScheduleCallback(end-d.e.Now(), m)
}

// Run submits the hardware path once the software window closes
// (engine-callback context).
func (m *ioMachine) Run() {
	d := m.d
	// Hardware path: split on stripes and MDTS, direct to GPU.
	off, n, addr := m.off, m.n, m.addr
	m.fan.Add(1) // submission hold, dropped below
	for n > 0 {
		chunk := calib.RAID0Stripe() - off%calib.RAID0Stripe()
		if chunk > n {
			chunk = n
		}
		if chunk > spdk.MaxTransfer() {
			chunk = spdk.MaxTransfer()
		}
		dev, lba := d.locate(off)
		r := d.nv.GetRequest()
		r.Op, r.Dev, r.SLBA = m.op, dev, lba
		r.NLB = uint32(chunk / nvme.LBASize)
		r.Addr = addr
		r.Sink, r.Tag = m, nil
		m.fan.Add(1)
		d.nv.Submit(r)
		off += chunk
		addr += mem.Addr(chunk)
		n -= chunk
	}
	m.fan.Release(d.e, d.e.Now(), (*ioFire)(m))
}

// RequestDone implements spdk.Completion: fan one NVMe completion into the
// machine (reactor context).
func (m *ioMachine) RequestDone(r *spdk.Request) { m.fan.Release(m.d.e, r.At, (*ioFire)(m)) }

// ioFire fires the machine's done signal once its last command completed.
type ioFire ioMachine

func (f *ioFire) Run() {
	m := (*ioMachine)(f)
	d, done := m.d, m.done
	*m = ioMachine{}
	d.freeIO.Put(m)
	done.Fire()
}
