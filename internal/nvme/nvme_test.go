package nvme

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/sim"
)

func TestSQERoundTrip(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, prp, slba uint64, nlb uint32) bool {
		in := SQE{Opcode: Opcode(op), CID: cid, NSID: nsid, PRP1: prp, SLBA: slba, NLB: nlb}
		var buf [SQESize]byte
		in.Marshal(buf[:])
		return UnmarshalSQE(buf[:]) == in
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCQERoundTrip(t *testing.T) {
	f := func(cid, sqh uint16, st uint8, phase bool) bool {
		in := CQE{CID: cid, SQHead: sqh, Status: Status(st % 64), Phase: phase}
		var buf [CQESize]byte
		in.Marshal(buf[:])
		return UnmarshalCQE(buf[:]) == in
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSQEBytes(t *testing.T) {
	s := SQE{NLB: 8}
	if s.Bytes() != 8*LBASize {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func newSQ(t *testing.T, depth uint32) *SQ {
	t.Helper()
	return NewSQ(sim.New(), "t", make([]byte, depth*SQESize), depth)
}

func newCQ(t *testing.T, depth uint32) *CQ {
	t.Helper()
	return NewCQ(sim.New(), "t", make([]byte, depth*CQESize), depth)
}

func TestSQPushPop(t *testing.T) {
	q := newSQ(t, 4)
	want := []SQE{{CID: 1, SLBA: 10, NLB: 1}, {CID: 2, SLBA: 20, NLB: 2}}
	for _, e := range want {
		if err := q.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range want {
		got, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("got %+v, want %+v", got, w)
		}
	}
	if _, err := q.Pop(); err != ErrQueueEmpty {
		t.Fatalf("Pop on empty = %v", err)
	}
}

// TestRingMemoryRenderedOnlyAtSync: Push and Post write the typed slots
// only. The registered ring memory keeps its old bytes until Sync renders
// the wire image, because encoding every entry as it is produced is work
// nothing in the simulator reads (DESIGN.md §13 has what it costs).
func TestRingMemoryRenderedOnlyAtSync(t *testing.T) {
	sqMem, cqMem := make([]byte, 4*SQESize), make([]byte, 4*CQESize)
	qp := NewQueuePair(sim.New(), "t", sqMem, cqMem, 4)
	sqe := SQE{Opcode: OpRead, CID: 3, NSID: 1, PRP1: 0x1000, SLBA: 7, NLB: 8}
	if err := qp.SQ.Push(sqe); err != nil {
		t.Fatal(err)
	}
	qp.CQ.Post(CQE{CID: 3, SQHead: 1})
	if !bytes.Equal(sqMem, make([]byte, len(sqMem))) || !bytes.Equal(cqMem, make([]byte, len(cqMem))) {
		t.Fatal("Push or Post wrote ring memory before Sync")
	}
	qp.Sync()
	if got := UnmarshalSQE(sqMem); got != sqe {
		t.Fatalf("SQ memory after Sync holds %+v, want %+v", got, sqe)
	}
	if got, want := UnmarshalCQE(cqMem), (CQE{CID: 3, SQHead: 1, Phase: true}); got != want {
		t.Fatalf("CQ memory after Sync holds %+v, want %+v", got, want)
	}
}

func TestSQFullKeepsOneSlotFree(t *testing.T) {
	q := newSQ(t, 4)
	for i := 0; i < 3; i++ {
		if err := q.Push(SQE{CID: uint16(i), NLB: 1}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if !q.Full() {
		t.Fatal("queue with depth-1 entries not Full")
	}
	if err := q.Push(SQE{NLB: 1}); err != ErrQueueFull {
		t.Fatalf("push into full queue = %v", err)
	}
}

func TestSQWrapAround(t *testing.T) {
	q := newSQ(t, 4)
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < 3; i++ {
			cid := uint16(lap*3 + i)
			if err := q.Push(SQE{CID: cid, NLB: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			got, err := q.Pop()
			if err != nil {
				t.Fatal(err)
			}
			if got.CID != uint16(lap*3+i) {
				t.Fatalf("lap %d: got CID %d", lap, got.CID)
			}
		}
	}
}

func TestCQPostPoll(t *testing.T) {
	q := newCQ(t, 4)
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll on empty CQ succeeded")
	}
	q.Post(CQE{CID: 9, Status: StatusSuccess})
	c, ok := q.Poll()
	if !ok || c.CID != 9 {
		t.Fatalf("Poll = %+v, %v", c, ok)
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("second Poll succeeded")
	}
}

func TestCQPhaseWrap(t *testing.T) {
	q := newCQ(t, 4)
	// Post and poll 13 entries across several laps; phase handling must
	// never show a stale entry.
	for i := 0; i < 13; i++ {
		q.Post(CQE{CID: uint16(i)})
		c, ok := q.Poll()
		if !ok || c.CID != uint16(i) {
			t.Fatalf("i=%d: got %+v, %v", i, c, ok)
		}
		if _, ok := q.Poll(); ok {
			t.Fatalf("i=%d: stale entry consumed", i)
		}
	}
}

func TestCQOverflowPanics(t *testing.T) {
	q := newCQ(t, 2)
	q.Post(CQE{})
	q.Post(CQE{})
	defer func() {
		if recover() == nil {
			t.Fatal("CQ overflow did not panic")
		}
	}()
	q.Post(CQE{})
}

func TestCQBatchThenDrain(t *testing.T) {
	q := newCQ(t, 8)
	for i := 0; i < 7; i++ {
		q.Post(CQE{CID: uint16(i)})
	}
	for i := 0; i < 7; i++ {
		c, ok := q.Poll()
		if !ok || c.CID != uint16(i) {
			t.Fatalf("drain i=%d got %+v %v", i, c, ok)
		}
	}
}

func TestDoorbellSignals(t *testing.T) {
	e := sim.New()
	q := NewSQ(e, "db", make([]byte, 4*SQESize), 4)
	woke := false
	e.Go("ctrl", func(p *sim.Proc) {
		p.Wait(q.Doorbell)
		woke = true
	})
	e.Go("host", func(p *sim.Proc) {
		p.Sleep(10)
		if err := q.Push(SQE{NLB: 1}); err != nil {
			t.Error(err)
		}
		q.Ring()
	})
	e.Run()
	if !woke {
		t.Fatal("doorbell did not wake controller")
	}
}

func TestQueuePairInFlight(t *testing.T) {
	e := sim.New()
	qp := NewQueuePair(e, "qp", make([]byte, 8*SQESize), make([]byte, 8*CQESize), 8)
	qp.SQ.Push(SQE{CID: 1, NLB: 1})
	qp.SQ.Push(SQE{CID: 2, NLB: 1})
	if qp.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", qp.InFlight())
	}
	qp.SQ.Pop()
	qp.CQ.Post(CQE{CID: 1})
	qp.CQ.Poll()
	if qp.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", qp.InFlight())
	}
}

// Property: any sequence of balanced post/poll keeps FIFO order across
// arbitrary ring laps.
func TestCQFIFOQuick(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		e := sim.New()
		q := NewCQ(e, "q", make([]byte, 8*CQESize), 8)
		rng := sim.NewRNG(seed)
		next := uint16(0)
		expect := uint16(0)
		for i := 0; i < int(steps); i++ {
			if rng.Float64() < 0.5 && !q.Full() {
				q.Post(CQE{CID: next})
				next++
			} else if c, ok := q.Poll(); ok {
				if c.CID != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if OpRead.String() != "Read" || OpWrite.String() != "Write" || OpFlush.String() != "Flush" {
		t.Fatal("Opcode.String broken")
	}
	if StatusSuccess.String() != "Success" || StatusLBAOutOfRange.String() != "LBAOutOfRange" {
		t.Fatal("Status.String broken")
	}
}
