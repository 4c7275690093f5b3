package sim

// Resource is a counted semaphore with FIFO admission, used to model units
// of capacity: CPU cores, DMA engines, NVMe queue slots, SM thread slots.
type Resource struct {
	e        *Engine
	name     string
	capacity int64
	inUse    int64
	// waiters is a ring of value-typed records (no per-Acquire allocation;
	// released slots are zeroed so blocked processes are never pinned).
	waiters ring[resWaiter]

	// usage integration for utilization reporting
	lastChange Time
	usageInt   float64 // ∫ inUse dt, in unit·ns
}

// resWaiter is one parked request: the grant is delivered by scheduling cb
// — the blocked *Proc itself, or a state machine's continuation — as a
// zero-delay event. Both kinds share the one FIFO ring, so admission order
// between processes and state machines is exact arrival order.
type resWaiter struct {
	cb Callback
	n  int64
}

// NewResource creates a resource with the given capacity (> 0).
func (e *Engine) NewResource(name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource capacity must be positive: " + name)
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// Available reports capacity minus units held.
func (r *Resource) Available() int64 { return r.capacity - r.inUse }

// QueueLen reports how many processes are blocked in Acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// integrate accrues usage·time up to now; call before every inUse change.
func (r *Resource) integrate() {
	now := r.e.now
	if now > r.lastChange {
		r.usageInt += float64(r.inUse) * float64(now-r.lastChange)
		r.lastChange = now
	}
}

// IntegratedUsage reports ∫ inUse dt in unit·nanoseconds up to now.
func (r *Resource) IntegratedUsage() float64 {
	r.integrate()
	return r.usageInt
}

// MeanUtilization reports time-averaged inUse/capacity since t=0.
func (r *Resource) MeanUtilization() float64 {
	if r.e.now == 0 {
		return 0
	}
	return r.IntegratedUsage() / (float64(r.capacity) * float64(r.e.now))
}

// Acquire blocks p until n units are available, then holds them. Admission
// is strictly FIFO: a large request at the head blocks later small ones.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("sim: Acquire larger than capacity on " + r.name)
	}
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.integrate()
		r.inUse += n
		return
	}
	r.waiters.pushBack(resWaiter{cb: p, n: n})
	p.block()
}

// AcquireCallback is the callback-machine form of Acquire: it reports true
// if the units were taken immediately; otherwise the waiter is parked FIFO
// (interleaved with process waiters) and cb runs via a zero-delay event
// once the units have been assigned to it. Callers should return after a
// false result and treat cb.Run as the continuation.
func (r *Resource) AcquireCallback(n int64, cb Callback) bool {
	if n <= 0 {
		return true
	}
	if n > r.capacity {
		panic("sim: Acquire larger than capacity on " + r.name)
	}
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.integrate()
		r.inUse += n
		return true
	}
	r.waiters.pushBack(resWaiter{cb: cb, n: n})
	return false
}

// TryAcquire holds n units if immediately available (respecting FIFO order)
// and reports whether it did.
func (r *Resource) TryAcquire(n int64) bool {
	if n <= 0 {
		return true
	}
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.integrate()
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and admits queued waiters in order.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	r.integrate()
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Release below zero on " + r.name)
	}
	for r.waiters.len() > 0 {
		w := r.waiters.front()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.integrate()
		r.inUse += w.n
		r.e.ScheduleCallback(0, w.cb)
		r.waiters.popFront()
	}
}
