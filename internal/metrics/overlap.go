package metrics

import "camsim/internal/sim"

// Overlap measures how much of a run had I/O and compute in flight at the
// same time: the quantity CAM's pipeline exists to maximise. Producers mark
// I/O +1 when a batch is published and -1 when it completes, and compute +1
// when a kernel starts and -1 when it ends. The meter integrates busy time
// as the marks arrive, so it stores no events and has no capacity. Methods
// on a nil *Overlap are no-ops, so producers never branch.
type Overlap struct {
	e           *sim.Engine
	marked      bool
	first, last sim.Time
	io, compute int // depths

	ioBusy, computeBusy, overlap sim.Time
}

// NewOverlap creates a meter reading virtual time from e.
func NewOverlap(e *sim.Engine) *Overlap { return &Overlap{e: e} }

// IO marks a batch published (+1) or completed (-1) now.
func (o *Overlap) IO(delta int) {
	if o != nil {
		o.io = o.mark(o.io, delta)
	}
}

// Compute marks a kernel started (+1) or ended (-1) now.
func (o *Overlap) Compute(delta int) {
	if o != nil {
		o.compute = o.mark(o.compute, delta)
	}
}

// mark integrates the interval since the previous mark at the depths it
// had, then returns depth moved by delta; a depth never goes below zero.
func (o *Overlap) mark(depth, delta int) int {
	now := o.e.Now()
	if !o.marked {
		o.first, o.last, o.marked = now, now, true
	}
	dt := now - o.last
	if o.io > 0 {
		o.ioBusy += dt
	}
	if o.compute > 0 {
		o.computeBusy += dt
	}
	if o.io > 0 && o.compute > 0 {
		o.overlap += dt
	}
	o.last = now
	return max(depth+delta, 0)
}

// Report returns the time I/O was in flight, the time compute was, the time
// both were, and the span from the first mark to the last.
func (o *Overlap) Report() (ioBusy, computeBusy, overlap, span sim.Time) {
	if o == nil {
		return
	}
	return o.ioBusy, o.computeBusy, o.overlap, o.last - o.first
}
