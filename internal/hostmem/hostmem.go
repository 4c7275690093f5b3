// Package hostmem models CPU-attached DRAM: a configurable number of memory
// channels whose aggregate bandwidth is a shared resource. The paper's
// Figures 14 and 15 hinge on this component — SPDK's staging data path
// crosses DRAM twice per SSD byte, so throttling the channel count throttles
// SPDK while leaving CAM (whose data plane bypasses DRAM) untouched.
package hostmem

import (
	"fmt"

	"camsim/internal/calib"
	"camsim/internal/mem"
	"camsim/internal/sim"
)

// Config describes the DRAM subsystem.
type Config struct {
	// Channels is the number of populated memory channels.
	Channels int
	// ChannelBandwidth is the effective per-channel data rate in bytes/s.
	// The paper's Xeon Gold 5320 runs DDR4-2933 (23.5 GB/s peak per
	// channel); sustained mixed-stream efficiency is far lower, and the
	// default is calibrated so that 2 channels cannot feed the staging
	// pipeline at the PCIe ceiling (Fig 15) while all of them can.
	ChannelBandwidth float64
	// Capacity is the total DRAM capacity in bytes.
	Capacity int64
}

// DefaultConfig matches the paper's host with all its channels populated.
func DefaultConfig() Config {
	return Config{
		Channels:         calib.HostChannels(),
		ChannelBandwidth: calib.HostChannelBandwidth(),
		Capacity:         calib.HostCapacity(),
	}
}

// Memory is the DRAM subsystem instance.
type Memory struct {
	cfg   Config
	link  *sim.Link
	arena *mem.Arena
	space *mem.Space

	allocated int64
}

// HostWindowBase is where host DRAM lives in the simulated physical address
// map. GPU HBM gets a disjoint window (see the gpu package).
const HostWindowBase mem.Addr = 0x0000_1000_0000_0000

// New creates the DRAM subsystem and registers its allocator window.
func New(e *sim.Engine, space *mem.Space, cfg Config) *Memory {
	if cfg.Channels <= 0 {
		panic("hostmem: Channels must be positive")
	}
	return &Memory{
		cfg:   cfg,
		link:  e.NewLink("dram", float64(cfg.Channels)*cfg.ChannelBandwidth, 0),
		arena: mem.NewArena("hostdram", HostWindowBase, cfg.Capacity),
		space: space,
	}
}

// Buffer is an allocation in host DRAM with a simulated physical address,
// usable as a DMA target. Its content is a payload: transfers move
// references, and real bytes exist only after Payload().Bytes or MakeEager.
type Buffer struct {
	Name string
	Addr mem.Addr
	size int64
	pay  *mem.Payload
	m    *Memory
}

// Alloc reserves n bytes of pinned host memory, registered in the platform
// address space so devices can DMA into it.
func (m *Memory) Alloc(name string, n int64) *Buffer {
	if m.allocated+n > m.cfg.Capacity {
		panic(fmt.Sprintf("hostmem: out of capacity allocating %q (%d bytes)", name, n))
	}
	pay := mem.NewPayload(n, mem.DefaultEager())
	addr := m.arena.Alloc(n, 4096)
	m.space.RegisterPayload(name, addr, pay, mem.HostDRAM)
	m.allocated += n
	return &Buffer{Name: name, Addr: addr, size: n, pay: pay, m: m}
}

// Free releases the buffer's address range and recycles its payload.
func (b *Buffer) Free() {
	b.m.space.Unregister(b.Addr)
	b.m.allocated -= b.size
	b.pay.Release()
	b.pay = nil
}

// Size reports the buffer length in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Payload exposes the buffer's content for reference-passing transfers.
func (b *Buffer) Payload() *mem.Payload { return b.pay }

// MakeEager materializes the buffer for good (Payload().Bytes), so the
// returned slice tracks every subsequent transfer (queue rings, control
// regions).
func (b *Buffer) MakeEager() []byte { return b.pay.Bytes() }

// ReserveTraffic books n bytes of DRAM bandwidth (one crossing) and returns
// the completion time without blocking. DMA writes into DRAM and CPU
// streaming reads out of it each count as one crossing.
func (m *Memory) ReserveTraffic(n int64) sim.Time { return m.link.Reserve(n) }

// TotalTraffic reports all bytes that crossed DRAM.
func (m *Memory) TotalTraffic() int64 { return m.link.TotalBytes() }

// AchievedBandwidth reports DRAM bytes/s averaged over elapsed time.
func (m *Memory) AchievedBandwidth() float64 { return m.link.AchievedBandwidth() }

// Allocated reports currently allocated bytes.
func (m *Memory) Allocated() int64 { return m.allocated }
