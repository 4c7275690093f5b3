package sim

// Store is an unbounded FIFO mailbox between simulation processes, the
// channel analogue inside virtual time. Producers never block; consumers
// block until an item arrives.
//
// Items and blocked getters both live in ring buffers whose released slots
// are zeroed, so the store never pins dequeued elements, and getter records
// recycle through a free list, so a Put/Get cycle is allocation-free in
// steady state.
type Store[T any] struct {
	e       *Engine
	name    string
	items   ring[T]
	getters ring[*storeGetter[T]]
	free    FreeList[storeGetter[T]]
	closed  bool
}

type storeGetter[T any] struct {
	p *Proc
	// sink is the callback-consumer variant: when non-nil the getter is
	// itself the scheduled Callback that delivers to it.
	sink StoreSink[T]
	s    *Store[T]
	v    T
	ok   bool
}

// Run delivers the value to the parked sink (engine-callback context). The
// getter record is released before the sink runs so the sink can
// immediately register again and reuse it.
func (g *storeGetter[T]) Run() {
	sink, v, ok := g.sink, g.v, g.ok
	g.s.release(g)
	sink.StoreItem(v, ok)
}

// StoreSink receives items from GetCallback in engine-callback context. It
// is the callback-state-machine analogue of a blocked Get: a converted
// consumer implements it and resumes its phase loop from StoreItem.
type StoreSink[T any] interface {
	StoreItem(v T, ok bool)
}

// NewStore creates an empty store. The type parameter is supplied at the
// call site: sim.NewStore[*Request](e, "sq0").
func NewStore[T any](e *Engine, name string) *Store[T] {
	return &Store[T]{e: e, name: name}
}

// Len reports the number of queued items.
func (s *Store[T]) Len() int { return s.items.len() }

// release zeroes g and parks it for reuse once its value has been consumed.
func (s *Store[T]) release(g *storeGetter[T]) {
	*g = storeGetter[T]{}
	s.free.Put(g)
}

// wake schedules the zero-delay event that hands g its outcome: the getter
// record itself for a sink, the blocked process otherwise.
func (s *Store[T]) wake(g *storeGetter[T]) {
	if g.sink != nil {
		s.e.ScheduleCallback(0, g)
	} else {
		s.e.ScheduleCallback(0, g.p)
	}
}

// Put enqueues v, waking the oldest blocked getter if any. Put after Close
// panics.
func (s *Store[T]) Put(v T) {
	if s.closed {
		panic("sim: Put on closed store " + s.name)
	}
	if s.getters.len() > 0 {
		g := s.getters.popFront()
		g.v, g.ok = v, true
		s.wake(g)
		return
	}
	s.items.pushBack(v)
}

// Get blocks until an item is available and returns it; ok is false only if
// the store is closed and drained.
func (s *Store[T]) Get(p *Proc) (v T, ok bool) {
	if s.items.len() > 0 {
		return s.items.popFront(), true
	}
	if s.closed {
		return v, false
	}
	g := s.free.Get()
	g.p = p
	s.getters.pushBack(g)
	p.block()
	v, ok = g.v, g.ok
	s.release(g)
	return v, ok
}

// GetCallback is the callback-machine form of Get: if an item is queued it
// is delivered to sink synchronously (before GetCallback returns), otherwise
// the sink is parked FIFO alongside blocked process getters and receives the
// item via a zero-delay event when one is Put. Callers should return
// immediately after GetCallback and treat StoreItem as the continuation.
func (s *Store[T]) GetCallback(sink StoreSink[T]) {
	if s.items.len() > 0 {
		sink.StoreItem(s.items.popFront(), true)
		return
	}
	if s.closed {
		var zero T
		sink.StoreItem(zero, false)
		return
	}
	g := s.free.Get()
	g.sink, g.s = sink, s
	s.getters.pushBack(g)
}

// TryGet dequeues an item if one is queued.
func (s *Store[T]) TryGet() (v T, ok bool) {
	if s.items.len() == 0 {
		return v, false
	}
	return s.items.popFront(), true
}

// Close marks the store closed: queued items can still be drained, blocked
// and future getters receive ok=false once empty.
func (s *Store[T]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for s.getters.len() > 0 {
		g := s.getters.popFront()
		s.wake(g)
	}
}

// Closed reports whether Close has been called.
func (s *Store[T]) Closed() bool { return s.closed }
