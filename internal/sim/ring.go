package sim

// ring is a growable FIFO ring buffer. It replaces the `s = s[1:]` slice
// queues the engine primitives used to carry: those shift the window forward
// forever (so append re-copies the whole queue once per wrap) and, worse,
// leave the shifted-off slots intact in the backing array, pinning every
// dequeued element for the life of the queue. popFront zeroes the vacated
// slot, so a dequeued request buffer becomes collectable the moment the
// consumer drops it.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of live elements
}

func (r *ring[T]) len() int { return r.n }

// pushBack appends v, growing the buffer (power-of-two capacities) when full.
func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// popFront removes and returns the oldest element, zeroing its slot.
func (r *ring[T]) popFront() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// front returns the oldest element without removing it.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
