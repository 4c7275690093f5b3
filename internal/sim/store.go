package sim

// Store is an unbounded FIFO mailbox between simulation machines, the
// channel analogue inside virtual time. Producers never block; consumers
// park a sink (GetCallback) until an item arrives, or poll with TryGet.
//
// Items and parked getters both live in ring buffers whose released slots
// are zeroed, so the store never pins dequeued elements, and getter records
// recycle through a free list, so a Put/GetCallback cycle is allocation-free
// in steady state.
type Store[T any] struct {
	e       *Engine
	name    string
	items   ring[T]
	getters ring[*storeGetter[T]]
	free    FreeList[storeGetter[T]]
	closed  bool
}

// storeGetter is one parked sink and, once an outcome is decided, the
// scheduled Callback that delivers it.
type storeGetter[T any] struct {
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

// StoreSink receives items from GetCallback in engine-callback context: a
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

// Put enqueues v, waking the oldest blocked getter if any. Put after Close
// panics.
func (s *Store[T]) Put(v T) {
	if s.closed {
		panic("sim: Put on closed store " + s.name)
	}
	if s.getters.len() > 0 {
		g := s.getters.popFront()
		g.v, g.ok = v, true
		s.e.ScheduleCallback(0, g)
		return
	}
	s.items.pushBack(v)
}

// GetCallback hands the next item to sink: if one is queued it is delivered
// synchronously (before GetCallback returns), otherwise the sink is parked
// FIFO and receives the item via a zero-delay event when one is Put; ok is
// false only if the store is closed and drained. Callers should return
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

// Close marks the store closed: queued items can still be drained, parked
// and future sinks receive ok=false once empty.
func (s *Store[T]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for s.getters.len() > 0 {
		s.e.ScheduleCallback(0, s.getters.popFront())
	}
}
