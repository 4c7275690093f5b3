package nvme

import "camsim/internal/sim"

// MaxQueueDepth is the largest queue an NVMe controller can expose: CIDs are
// 16 bits wide and CAP.MQES is zero-based, so 65 536 entries.
const MaxQueueDepth = 1 << 16

// Tags is the host side of one queue pair's command identifiers: which CID
// each in-flight command holds, who owns it (a driver's request or batch
// record; the zero T marks a free CID) and its completion deadline. Every
// driver keeps one per queue pair, as real BaM keeps its CID pool on the
// queue pair itself.
//
// CIDs are handed out round-robin: the first free one at or after the CID
// after the last handed out. Armed deadlines are also kept in arm order.
// Drivers arm at submit time with a constant timeout, so that order is
// non-decreasing and the earliest live deadline is the oldest entry still
// live. Entries whose command has left are dropped lazily when they reach
// the head.
type Tags[T comparable] struct {
	slots []tag[T]
	next  int // where the search for a free CID starts
	armed []armedTag
	head  int // first possibly-live entry of armed
}

type tag[T comparable] struct {
	owner    T
	deadline sim.Time // 0 when unarmed
}

// armedTag is one armed deadline. It is stale once its CID's slot no
// longer carries the same deadline (completed, expired or re-armed).
type armedTag struct {
	cid      uint16
	deadline sim.Time
}

// NewTags returns a table of depth free CIDs (at most MaxQueueDepth).
func NewTags[T comparable](depth uint32) Tags[T] {
	return Tags[T]{slots: make([]tag[T], depth)}
}

// Depth reports the number of CIDs.
func (t *Tags[T]) Depth() int { return len(t.slots) }

// Alloc takes a free CID for owner, with a completion deadline unless
// deadline is 0. Deadlines must be armed in non-decreasing order. The
// caller's in-flight limiter guarantees a free CID.
func (t *Tags[T]) Alloc(owner T, deadline sim.Time) uint16 {
	var free T
	cid := t.next
	for range t.slots {
		if cid == len(t.slots) {
			cid = 0
		}
		if t.slots[cid].owner == free {
			t.slots[cid] = tag[T]{owner: owner, deadline: deadline}
			t.next = cid + 1
			if deadline > 0 {
				t.armed = append(t.armed, armedTag{cid: uint16(cid), deadline: deadline}) // grows to its high-water mark once; Earliest compacts it
			}
			return uint16(cid)
		}
		cid++
	}
	panic("nvme: no free CID despite the in-flight limit")
}

// Owner reports cid's owner (the zero T when cid is free).
func (t *Tags[T]) Owner(cid uint16) T { return t.slots[cid].owner }

// NextDue reports the first CID at or after from, and its owner, whose
// armed deadline is at or before now. While the earliest deadline is still
// ahead it answers without a scan.
func (t *Tags[T]) NextDue(from int, now sim.Time) (uint16, T, bool) {
	var free T
	if next := t.Earliest(); next == 0 || next > now {
		return 0, free, false
	}
	for cid := from; cid < len(t.slots); cid++ {
		if s := t.slots[cid]; s.owner != free && s.deadline > 0 && s.deadline <= now {
			return uint16(cid), s.owner, true
		}
	}
	return 0, free, false
}

// Free releases cid and returns the owner it held. A CID that is not in
// flight is a driver bug (a completion for an unknown CID): Free panics.
func (t *Tags[T]) Free(cid uint16) T {
	var free T
	owner := t.slots[cid].owner
	if owner == free {
		panic("nvme: freeing a CID that is not in flight")
	}
	t.slots[cid] = tag[T]{}
	return owner
}

// Earliest reports the earliest armed deadline still in flight (0 when
// none), discarding stale entries on the way.
func (t *Tags[T]) Earliest() sim.Time {
	var free T
	for t.head < len(t.armed) {
		a := t.armed[t.head]
		if s := t.slots[a.cid]; s.owner != free && s.deadline == a.deadline {
			if t.head > len(t.armed)/2 {
				// A queue that is never idle never drains: drop the
				// discarded half so it stays bounded by the entries
				// armed since its oldest live one.
				t.armed = t.armed[:copy(t.armed, t.armed[t.head:])]
				t.head = 0
			}
			return a.deadline
		}
		t.head++
	}
	t.armed = t.armed[:0]
	t.head = 0
	return 0
}
