package gpu

import "camsim/internal/sim"

// CopyEngine models the cudaMemcpyAsync path between host DRAM and GPU HBM:
// a dedicated PCIe x16 DMA domain (separate from the SSD fabric) with a
// fixed per-call launch overhead. The launch overhead is what collapses
// small-granularity staged I/O in the paper's Figure 16: a 4 KiB copy costs
// ~3 µs of setup for ~0.2 µs of wire time (≈1.3 GB/s), while a 128 MiB copy
// amortizes setup completely (≈21 GB/s).
type CopyEngine struct {
	link  *sim.Link
	calls int64
}

// CopyEngineConfig calibrates the engine.
type CopyEngineConfig struct {
	// Bandwidth is the H2D/D2H wire rate in bytes/s (PCIe Gen4 x16
	// effective).
	Bandwidth float64
	// LaunchOverhead is the per-cudaMemcpyAsync call setup cost.
	LaunchOverhead sim.Time
}

// DefaultCopyEngineConfig matches the paper's measurements (4 KiB staged
// granularity ⇒ ≈1.3 GB/s).
func DefaultCopyEngineConfig() CopyEngineConfig {
	return CopyEngineConfig{
		Bandwidth:      21e9,
		LaunchOverhead: 3 * sim.Microsecond,
	}
}

// NewCopyEngine creates the engine on e. The launch overhead occupies the
// engine itself (back-to-back small copies cannot pipeline their setup,
// which is exactly why Figure 16's staged path collapses).
func NewCopyEngine(e *sim.Engine, name string, cfg CopyEngineConfig) *CopyEngine {
	return &CopyEngine{link: e.NewLink(name, cfg.Bandwidth, cfg.LaunchOverhead)}
}

// ReserveCopy books one memcpy call of n bytes and returns its completion
// time without blocking.
func (ce *CopyEngine) ReserveCopy(n int64) sim.Time {
	ce.calls++
	return ce.link.Reserve(n)
}

// Calls reports the number of memcpy invocations.
func (ce *CopyEngine) Calls() int64 { return ce.calls }
