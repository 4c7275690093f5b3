package gpu

import (
	"camsim/internal/calib"
	"camsim/internal/sim"
)

// CopyEngine models the cudaMemcpyAsync path between host DRAM and GPU HBM:
// a dedicated PCIe x16 DMA domain (separate from the SSD fabric) with a
// fixed per-call launch overhead. The launch overhead is what collapses
// small-granularity staged I/O in the paper's Figure 16: a 4 KiB copy is
// mostly setup, while a 128 MiB copy amortizes it completely (DESIGN §4).
type CopyEngine struct {
	link  *sim.Link
	calls int64
}

// NewCopyEngine creates the engine on e at calib.CopyBandwidth. The launch
// overhead, calib.CopyLaunch, occupies the engine itself (back-to-back small
// copies cannot pipeline their setup, which is exactly why Figure 16's
// staged path collapses).
func NewCopyEngine(e *sim.Engine, name string) *CopyEngine {
	return &CopyEngine{link: e.NewLink(name, calib.PCIeBandwidth(), calib.CopyLaunch())}
}

// ReserveCopy books one memcpy call of n bytes and returns its completion
// time without blocking.
func (ce *CopyEngine) ReserveCopy(n int64) sim.Time {
	ce.calls++
	return ce.link.Reserve(n)
}

// Calls reports the number of memcpy invocations.
func (ce *CopyEngine) Calls() int64 { return ce.calls }
