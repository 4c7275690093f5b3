package nvme

import (
	"strings"
	"testing"
	"time"

	"camsim/internal/sim"
)

// TestTagsFullCIDSpace: a queue of MaxQueueDepth entries hands out every
// 16-bit CID, 65 535 included, and wraps round to the lowest free one.
func TestTagsFullCIDSpace(t *testing.T) {
	tags := NewTags[*int](MaxQueueDepth)
	owner := new(int)
	for want := 0; want < MaxQueueDepth; want++ {
		if got := tags.Alloc(owner, sim.Time(want+1)); int(got) != want {
			t.Fatalf("Alloc #%d = CID %d", want, got)
		}
	}
	if tags.Owner(MaxQueueDepth-1) != owner {
		t.Fatal("CID 65535 holds no owner")
	}
	tags.Free(7)
	tags.Free(3)
	if got := tags.Alloc(owner, 0); got != 3 {
		t.Fatalf("Alloc after wrapping = CID %d, want 3", got)
	}
	if got := tags.Earliest(); got != 1 {
		t.Fatalf("Earliest = %v, want 1", got)
	}
}

// TestTagsNothingDueWithoutScan: with every CID of a full-depth table in
// flight and the earliest deadline still ahead, NextDue answers from the
// head of the armed-deadline FIFO, not by scanning 65 536 slots. A reactor
// asks on every sweep, and a scan there makes the quick suite under a
// fault plan about three times slower (DESIGN.md §13). 10 000 calls take
// tens of microseconds from the head and most of a second by scan, so the
// bound is loose; up to three rounds are tried because interference on a
// shared host only ever adds time.
func TestTagsNothingDueWithoutScan(t *testing.T) {
	const bound = 50 * time.Millisecond
	tags := NewTags[*int](MaxQueueDepth)
	owner := new(int)
	for i := 0; i < MaxQueueDepth; i++ {
		tags.Alloc(owner, sim.Time(1000+i))
	}
	fastest := time.Hour
	for round := 0; round < 3 && fastest > bound; round++ {
		start := time.Now()
		for i := 0; i < 10000; i++ {
			if _, _, due := tags.NextDue(0, 999); due {
				t.Fatal("NextDue reported a deadline that is not due")
			}
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest > bound {
		t.Fatalf("10 000 NextDue calls with nothing due took %v on a full table, want them answered from the head", fastest)
	}
}

// TestTagsFreeIdlePanics: releasing a CID that is not in flight is a
// driver bug (a completion for an unknown CID).
func TestTagsFreeIdlePanics(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "CID that is not in flight") {
			t.Fatalf("recovered %q", r)
		}
	}()
	tags := NewTags[*int](8)
	tags.Free(5)
}

// TestQueueDepthLimit: rings take at most MaxQueueDepth entries, and a
// deeper one panics naming the limit.
func TestQueueDepthLimit(t *testing.T) {
	e := sim.New()
	NewQueuePair(e, "max", make([]byte, MaxQueueDepth*SQESize), make([]byte, MaxQueueDepth*CQESize), MaxQueueDepth)
	const over = MaxQueueDepth + 1
	for _, mk := range []func(){
		func() { NewSQ(e, "sq", make([]byte, over*SQESize), over) },
		func() { NewCQ(e, "cq", make([]byte, over*CQESize), over) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "65536") {
					t.Fatalf("depth %d: recovered %q, want a panic naming 65536", over, r)
				}
			}()
			mk()
		}()
	}
}

// FuzzTags runs alloc/free/arm sequences at a non-decreasing clock against
// a brute-force oracle: the first free CID counting round from the one
// after the last handed out, and the earliest armed deadline and the due
// CIDs by a scan of every CID. Each op byte's low two bits pick alloc, armed alloc, free or a clock
// step; the rest is the operand.
func FuzzTags(f *testing.F) {
	f.Add(uint8(2), []byte{1, 1, 2, 1, 255, 1, 6, 2})
	f.Add(uint8(5), []byte{0, 1, 1, 0, 9, 3, 131, 1, 2, 2, 251, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(1), []byte{1, 1, 255, 0, 2, 151, 1, 255, 2, 2}) // a deadline falls due at t=100 exactly
	f.Fuzz(func(t *testing.T, d uint8, ops []byte) {
		const timeout = 100
		depth := 2 + int(d%15)
		tags := NewTags[*int](uint32(depth))
		owners := make([]*int, depth)
		deadlines := make([]sim.Time, depth)
		var next int
		var now sim.Time
		for i, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0, 1:
				want := -1
				for j := range depth {
					if c := (next + j) % depth; owners[c] == nil {
						want = c
						break
					}
				}
				if want < 0 {
					continue // full: the driver's in-flight limit holds the submitter
				}
				var deadline sim.Time
				if op&3 == 1 {
					deadline = now + timeout
				}
				o := new(int)
				if got := tags.Alloc(o, deadline); int(got) != want {
					t.Fatalf("op %d: Alloc = CID %d, oracle %d", i, got, want)
				}
				owners[want], deadlines[want], next = o, deadline, want+1
			case 2:
				var held []int
				for c, o := range owners {
					if o != nil {
						held = append(held, c)
					}
				}
				if len(held) == 0 {
					continue
				}
				c := held[arg%len(held)]
				if got := tags.Free(uint16(c)); got != owners[c] {
					t.Fatalf("op %d: Free(%d) returned another owner", i, c)
				}
				owners[c], deadlines[c] = nil, 0
			case 3:
				now += sim.Time(arg)
			}
			var earliest sim.Time
			due := depth // the first due CID at or after each from, scanned backwards
			for c := depth - 1; c >= 0; c-- {
				dl := deadlines[c]
				if owners[c] != nil && dl > 0 && (earliest == 0 || dl < earliest) {
					earliest = dl
				}
				if owners[c] != nil && dl > 0 && dl <= now {
					due = c
				}
				cid, o, ok := tags.NextDue(c, now)
				if ok != (due < depth) || ok && (int(cid) != due || o != owners[due]) {
					t.Fatalf("op %d: NextDue(%d, %v) = %d, %v; oracle %d (depth: none)", i, c, now, cid, ok, due)
				}
			}
			if got := tags.Earliest(); got != earliest {
				t.Fatalf("op %d: Earliest = %v, oracle %v", i, got, earliest)
			}
		}
	})
}
