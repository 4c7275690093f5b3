// Package pcie models the PCIe Gen4 fabric that connects the GPU and the
// NVMe SSDs to the host. The paper's platform is a Gen4 x16 topology whose
// theoretical 32 GB/s delivers about 21 GB/s in practice because of TLP
// header overhead and switch contention between the twelve SSDs; that
// effective ceiling is what every multi-SSD experiment in the paper runs
// into, so the fabric is a first-class simulated component here.
package pcie

import (
	"camsim/internal/calib"
	"camsim/internal/sim"
)

// Config describes a fabric.
type Config struct {
	// EffectiveBandwidth is the achievable aggregate data rate in bytes/s
	// (after encoding and header overhead).
	EffectiveBandwidth float64
	// PerTLPOverhead is the fixed per-transfer cost modeling DMA engine
	// setup and TLP headers for one scatter/gather element.
	PerTLPOverhead sim.Time
	// PropagationDelay is the one-way latency for small control writes
	// (doorbells, MMIO) across the fabric.
	PropagationDelay sim.Time
}

// DefaultConfig matches the paper's measured platform: Gen4 x16 at its
// observed ceiling, calib.PCIeBandwidth. That rate is already net of
// encoding and header overhead, so the residual per-transfer cost only
// covers DMA descriptor handling.
func DefaultConfig() Config {
	return Config{
		EffectiveBandwidth: calib.PCIeBandwidth(),
		PerTLPOverhead:     calib.PCIeTLPOverhead(),
		PropagationDelay:   calib.PCIePropagation(),
	}
}

// Fabric is a shared bandwidth domain. All bulk DMA between devices flows
// through its one sim.Link, which fills the gaps between transfers booked
// ahead of the clock and so reproduces both the aggregate ceiling and the
// latency growth under contention.
type Fabric struct {
	cfg  Config
	link *sim.Link
}

// New creates a fabric on the engine.
func New(e *sim.Engine, cfg Config) *Fabric {
	return &Fabric{
		cfg:  cfg,
		link: e.NewLink("pcie", cfg.EffectiveBandwidth, cfg.PerTLPOverhead),
	}
}

// Engine reports the engine the fabric lives on. Device constructors use it
// to check their wiring: everything sharing a fabric must share its engine.
func (f *Fabric) Engine() *sim.Engine { return f.link.Engine() }

// ReserveDMA books a bulk transfer of n bytes ready now and returns its
// completion time; it never blocks the caller.
func (f *Fabric) ReserveDMA(n int64) sim.Time { return f.link.Reserve(n) }

// ReserveDMAFrom books a bulk transfer of n bytes ready at instant at (no
// earlier than now) and returns the first instant it holds the fabric and
// its completion time (sim.Link.ReserveFrom): an SSD books its data
// transfer at fetch, for the instant its media phase ends.
func (f *Fabric) ReserveDMAFrom(at sim.Time, n int64) (start, end sim.Time) {
	return f.link.ReserveFrom(at, n)
}

// DMA blocks p for a bulk transfer of n bytes.
func (f *Fabric) DMA(p *sim.Proc, n int64) { f.link.Transfer(p, n) }

// MMIODelay reports the latency of a small posted write (doorbell ring,
// flag write) across the fabric. Such writes are tiny and do not consume
// meaningful bandwidth, so they bypass the bulk link.
func (f *Fabric) MMIODelay() sim.Time { return f.cfg.PropagationDelay }

// TotalBytes reports all bytes DMAed through the fabric.
func (f *Fabric) TotalBytes() int64 { return f.link.TotalBytes() }

// Utilization reports the fraction of elapsed time the fabric was busy.
func (f *Fabric) Utilization() float64 { return f.link.Utilization() }
