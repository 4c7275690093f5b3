// Package cpustat accounts CPU instructions and cycles per I/O request for
// each management scheme, reproducing the paper's Figure 13 methodology:
// polling drivers retire many instructions at high IPC (cheap cycles), while
// the interrupt-driven kernel path retires more instructions at low IPC
// (expensive cycles).
package cpustat

import (
	"camsim/internal/calib"
	"camsim/internal/sim"
)

// TimeToCycles converts wall time to cycles at the evaluation platform's
// CPU frequency, calib.CPUFreq.
func TimeToCycles(t sim.Time) float64 {
	return t.Seconds() * calib.CPUFreq()
}

// Counters accumulates per-driver CPU work.
type Counters struct {
	Requests     uint64
	Instructions float64
	Cycles       float64
}

// Charge records instructions retired at the given IPC.
func (c *Counters) Charge(instructions, ipc float64) {
	if ipc <= 0 {
		panic("cpustat: IPC must be positive")
	}
	c.Instructions += instructions
	c.Cycles += instructions / ipc
}

// ChargeCycles records stall cycles that retire no instructions
// (interrupt latency, cache misses attributed wholesale).
func (c *Counters) ChargeCycles(cycles float64) {
	c.Cycles += cycles
}

// Done marks n requests complete (the denominator for per-request stats).
func (c *Counters) Done(n uint64) { c.Requests += n }

// PerRequestInstructions reports mean instructions per completed request.
func (c *Counters) PerRequestInstructions() float64 {
	if c.Requests == 0 {
		return 0
	}
	return c.Instructions / float64(c.Requests)
}

// PerRequestCycles reports mean cycles per completed request.
func (c *Counters) PerRequestCycles() float64 {
	if c.Requests == 0 {
		return 0
	}
	return c.Cycles / float64(c.Requests)
}

// Add merges other into c.
func (c *Counters) Add(other Counters) {
	c.Requests += other.Requests
	c.Instructions += other.Instructions
	c.Cycles += other.Cycles
}
