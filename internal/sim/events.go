package sim

import "math/bits"

// event is one pending queue entry: the instant it is due, the insertion
// sequence that orders ties, and the action to run. Everything the engine
// schedules — process resumes (*Proc), pooled state machines, timers and
// plain closures (funcCallback) — is a Callback, so dispatch is one
// interface call.
type event struct {
	at  Time
	seq uint64
	cb  Callback
}

// slotBits is how much of an eventKey's packed word the slab-slot index
// occupies; the insertion sequence lives above it. 24 bits allow 16M timed
// events pending at once and leave 40 bits of sequence — a trillion events
// per run — before overflow (both guarded in push).
const slotBits = 24

const slotMask = 1<<slotBits - 1

// eventKey is the timed lanes' compact ordering record: the event timestamp
// plus the insertion sequence packed above the slab-slot index. Ordering by
// (at, sq) equals ordering by (at, seq) — sequences are unique, so the slot
// bits can never decide a comparison — while keeping entries at 16 bytes:
// run sorts and heap sifts move four keys per cache line and never touch the
// callback.
type eventKey struct {
	at Time
	sq uint64 // seq<<slotBits | slab slot
}

func keyLess(a, b eventKey) bool {
	return a.at < b.at || (a.at == b.at && a.sq < b.sq)
}

// slabEntry parks one timed event: its key, its callback and the link that
// threads it onto its calendar bucket's list (or onto the free list). Links
// are slot+1, so the zero value is the empty list.
type slabEntry struct {
	key  eventKey
	cb   Callback
	next int32
}

// Calendar geometry, derived from the measured event mix of the paper's
// headline point (cam-read-4k: 5.0 events per I/O, ≈1 500 pending; DESIGN.md
// §6): 52 % of pushes land 64–511 ns ahead and 40 % 8 µs–1 ms ahead, so a
// 512 ns bucket keeps the sorted run at ≈12 keys and a 2048-bucket ring puts
// the horizon at 1.05 ms, past every media and DMA phase; only
// millisecond-scale timeouts and harness sleeps take the overflow heap.
const (
	calWidthBits = 9
	calWords     = 32 // occupancy bitmap words: one bit each in the uint32 summary
	calBuckets   = calWords * 64
	calMask      = calBuckets - 1
)

// bucketOf maps a timestamp to its absolute bucket number.
func bucketOf(at Time) uint64 { return uint64(at) >> calWidthBits }

// QueueStats counts the engine's event traffic by lane. The counters are
// exact and deterministic, so tests and benchmarks can assert the mix a
// workload produces instead of inferring it from a profile.
type QueueStats struct {
	Dispatched     uint64 // events run (dead timers excluded)
	NowPushes      uint64 // zero-delay lane
	WheelPushes    uint64 // calendar, including pushes into the active run
	OverflowPushes uint64 // past the horizon at push time
	Promotions     uint64 // overflow events moved into the calendar
	DeadTimers     uint64 // canceled timers discarded at dispatch
	Activations    uint64 // buckets gathered into the run
	RunKeysSorted  uint64 // keys those gathers sorted
	RunInserts     uint64 // pushes that landed in the active run
}

// Add accumulates o into s, for totals across engines.
func (s *QueueStats) Add(o QueueStats) {
	s.Dispatched += o.Dispatched
	s.NowPushes += o.NowPushes
	s.WheelPushes += o.WheelPushes
	s.OverflowPushes += o.OverflowPushes
	s.Promotions += o.Promotions
	s.DeadTimers += o.DeadTimers
	s.Activations += o.Activations
	s.RunKeysSorted += o.RunKeysSorted
	s.RunInserts += o.RunInserts
}

// Pushes reports the events scheduled, all lanes.
func (s QueueStats) Pushes() uint64 { return s.NowPushes + s.WheelPushes + s.OverflowPushes }

// eventQueue orders an engine's pending events through three lanes:
//
//   - nowq: the zero-delay lane. Events pushed for the engine's current
//     instant; the clock never rewinds and seq is monotone, so appends arrive
//     already sorted and a ring replaces any sifting.
//   - the calendar: calBuckets buckets of 512 ns covering [floor, floor +
//     1.05 ms). A bucket is a 4-byte list head threaded through the slab, so
//     a push is a link and a bit. When dispatch reaches the earliest occupied
//     bucket its keys are gathered into run, sorted once, and popped from its
//     tail; pushes for the run's own bucket binary-insert into it.
//   - the overflow 4-ary heap: everything at or beyond the horizon. As the
//     floor advances, newly addressable events promote into the calendar —
//     each at most once.
//
// The dispatch order is exactly the global (at, seq) minimum: the run
// precedes every occupied bucket (see calInsert), the calendar precedes the
// heap (advance promotes everything below the horizon), and the now lane's
// head is compared against the timed head on every pop.
//
// The floor only ever advances to the engine's clock, and every push times at
// or after the clock, so no push can land behind the window.
type eventQueue struct {
	n     int // pending events, all lanes
	stats QueueStats

	nowq ring[event]

	// run is the active bucket's keys sorted descending, so the earliest
	// pops off the tail. runOn marks it active for bucket runBucket, whose
	// list is empty and occupancy bit clear meanwhile; an active run may be
	// empty (its bucket drained but not yet left).
	run       []eventKey
	runBucket uint64
	runOn     bool

	heap []eventKey // overflow lane

	slab []slabEntry
	free int32 // free-slot list through slabEntry.next

	// wbase is the absolute bucket number of the window start. occ has one
	// bit per ring slot holding a non-empty list and sum one bit per
	// non-zero occ word.
	wbase uint64
	sum   uint32
	occ   [calWords]uint64
	heads [calBuckets]int32
}

func (q *eventQueue) len() int { return q.n }

// pushNow appends an event due at the engine's current instant.
func (q *eventQueue) pushNow(ev event) {
	q.nowq.pushBack(ev)
	q.n++
	q.stats.NowPushes++
}

// push parks a timed event (at later than the engine's clock) in a slab
// slot and files its key into the calendar or, past the horizon, the
// overflow heap.
func (q *eventQueue) push(at Time, seq uint64, cb Callback) {
	if seq >= 1<<(64-slotBits) {
		panic("sim: event sequence overflows key packing")
	}
	slot := q.free - 1
	if slot >= 0 {
		q.free = q.slab[slot].next
	} else {
		slot = int32(len(q.slab))
		if slot > slotMask {
			panic("sim: too many pending timed events")
		}
		q.slab = append(q.slab, slabEntry{}) // amortized slab growth to the pending high-water mark; steady state reuses freed slots
	}
	k := eventKey{at: at, sq: seq<<slotBits | uint64(slot)}
	q.slab[slot] = slabEntry{key: k, cb: cb}
	q.n++
	if bucketOf(at) >= q.wbase+calBuckets {
		q.stats.OverflowPushes++
		q.heapPush(k)
		return
	}
	q.stats.WheelPushes++
	q.calInsert(k)
}

// calInsert files k, which lies inside the window, into the run or onto its
// bucket's list. A key for a bucket before the active run's — possible only
// when the run was gathered ahead of the clock, by a deadline or next-event
// peek — first hands the run back to its bucket so the run stays the
// calendar's earliest.
func (q *eventQueue) calInsert(k eventKey) {
	b := bucketOf(k.at)
	if q.runOn {
		if b == q.runBucket {
			q.runInsert(k)
			return
		}
		if b < q.runBucket {
			q.handBack()
		}
	}
	s := uint(b) & calMask
	slot := int32(k.sq & slotMask)
	q.slab[slot].next = q.heads[s]
	q.heads[s] = slot + 1
	q.occ[s>>6] |= 1 << (s & 63)
	q.sum |= 1 << (s >> 6)
}

// runInsert places k in the descending run by binary search.
func (q *eventQueue) runInsert(k eventKey) {
	q.stats.RunInserts++
	lo, hi := 0, len(q.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(k, q.run[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.run = append(q.run, eventKey{}) // amortized run growth to the largest bucket population; steady state reuses capacity
	copy(q.run[lo+1:], q.run[lo:])
	q.run[lo] = k
}

// handBack returns the run's keys to their bucket's list.
func (q *eventQueue) handBack() {
	q.runOn = false
	run := q.run
	q.run = run[:0]
	for _, k := range run {
		q.calInsert(k)
	}
}

// minBucket reports the absolute number of the earliest occupied bucket.
// Callers guarantee q.sum != 0. The scan is circular from the window start:
// the rest of the start's word, then the next non-empty word by rotating the
// summary — which, after a full turn, is the start's word again, where only
// bits below the start can remain.
func (q *eventQueue) minBucket() uint64 {
	s := uint(q.wbase) & calMask
	w, b := s>>6, s&63
	if m := q.occ[w] >> b; m != 0 {
		return q.wbase + uint64(bits.TrailingZeros64(m))
	}
	i := uint(bits.TrailingZeros32(bits.RotateLeft32(q.sum, -int(w+1))))
	m := q.occ[(w+1+i)&(calWords-1)]
	return q.wbase + uint64(64-b+i*64) + uint64(bits.TrailingZeros64(m))
}

// activate gathers bucket b's list into the run, insertion-sorting it
// descending on the way: lists are newest-first and later pushes mostly time
// later, so the common insert is an append.
func (q *eventQueue) activate(b uint64) {
	s := uint(b) & calMask
	run := q.run[:0]
	for i := q.heads[s]; i != 0; {
		e := &q.slab[i-1]
		k := e.key
		i = e.next
		j := len(run)
		run = append(run, k) // amortized run growth to the largest bucket population; steady state reuses capacity
		for j > 0 && (run[j-1].at < k.at || (run[j-1].at == k.at && run[j-1].sq < k.sq)) {
			run[j] = run[j-1]
			j--
		}
		run[j] = k
	}
	q.heads[s] = 0
	if q.occ[s>>6] &^= 1 << (s & 63); q.occ[s>>6] == 0 {
		q.sum &^= 1 << (s >> 6)
	}
	q.run, q.runBucket, q.runOn = run, b, true
	q.stats.Activations++
	q.stats.RunKeysSorted += uint64(len(run))
}

// timedHead reports the earliest timed key: the run's tail; else, gathering
// it, the earliest occupied bucket's — unless that bucket lies after lim, in
// which case the caller's now-lane head wins and nothing is gathered; else
// the overflow heap's top.
func (q *eventQueue) timedHead(lim uint64) (k eventKey, ok bool) {
	if len(q.run) == 0 {
		q.runOn = false
		if q.sum == 0 {
			if len(q.heap) == 0 {
				return k, false
			}
			return q.heap[0], true
		}
		b := q.minBucket()
		if b > lim {
			return k, false
		}
		q.activate(b)
	}
	return q.run[len(q.run)-1], true
}

// popMinUntil removes and returns the earliest event across all lanes if it
// is due at or before deadline.
func (q *eventQueue) popMinUntil(deadline Time) (event, bool) {
	lim := ^uint64(0)
	var f *event
	if q.nowq.len() > 0 {
		f = q.nowq.front()
		lim = bucketOf(f.at)
	}
	k, timed := q.timedHead(lim)
	if f != nil && (!timed || f.at < k.at || (f.at == k.at && f.seq < k.sq>>slotBits)) {
		if f.at > deadline {
			return event{}, false
		}
		q.n--
		return q.nowq.popFront(), true
	}
	if !timed || k.at > deadline {
		return event{}, false
	}
	if n := len(q.run); n > 0 {
		q.run = q.run[:n-1]
	} else {
		q.heapPop()
	}
	slot := int32(k.sq & slotMask)
	e := &q.slab[slot]
	cb := e.cb
	e.cb = nil // never pin a dead callback or process
	e.next = q.free
	q.free = slot + 1
	q.n--
	return event{at: k.at, seq: k.sq >> slotBits, cb: cb}, true
}

// advance slides the window start to the bucket of the engine's clock and
// promotes overflow events that became addressable. Every pending event
// times at or after the clock, so the buckets slid past are empty.
func (q *eventQueue) advance(now Time) {
	nb := bucketOf(now)
	if nb <= q.wbase {
		return
	}
	q.wbase = nb
	for len(q.heap) > 0 && bucketOf(q.heap[0].at) < nb+calBuckets {
		q.stats.Promotions++
		q.calInsert(q.heapPop())
	}
}

// heapPush sifts k up the overflow heap.
func (q *eventQueue) heapPush(k eventKey) {
	q.heap = append(q.heap, k)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		p := q.heap[parent]
		if k.at > p.at || (k.at == p.at && k.sq > p.sq) {
			break
		}
		q.heap[i] = p
		i = parent
	}
	q.heap[i] = k
}

// heapPop removes and returns the overflow heap's earliest key. Callers
// guarantee len(q.heap) > 0.
func (q *eventQueue) heapPop() eventKey {
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.heap)
	k := q.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		mk := q.heap[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			ck := q.heap[c]
			if ck.at < mk.at || (ck.at == mk.at && ck.sq < mk.sq) {
				min, mk = c, ck
			}
		}
		if mk.at > k.at || (mk.at == k.at && mk.sq > k.sq) {
			break
		}
		q.heap[i] = mk
		i = min
	}
	q.heap[i] = k
}
