package nvme

import (
	"bytes"
	"testing"

	"camsim/internal/sim"
)

// eagerRings is the wire-format oracle: the rings as they were before the
// typed slots, marshalling every entry into ring memory as it is produced
// and decoding the bytes again to consume it.
type eagerRings struct {
	depth          uint32
	sq, cq         []byte
	sqHead, sqTail uint32
	cqHead, cqTail uint32
	phase, hostPh  bool
}

func newEagerRings(depth uint32) *eagerRings {
	return &eagerRings{depth: depth, sq: make([]byte, depth*SQESize), cq: make([]byte, depth*CQESize),
		phase: true, hostPh: true}
}

func (r *eagerRings) push(e SQE) bool {
	if r.sqTail-r.sqHead == r.depth-1 {
		return false
	}
	e.Marshal(r.sq[r.sqTail%r.depth*SQESize:])
	r.sqTail++
	return true
}

func (r *eagerRings) pop() (SQE, bool) {
	if r.sqTail == r.sqHead {
		return SQE{}, false
	}
	e := UnmarshalSQE(r.sq[r.sqHead%r.depth*SQESize:])
	r.sqHead++
	return e, true
}

func (r *eagerRings) post(c CQE) bool {
	if r.cqTail-r.cqHead == r.depth {
		return false
	}
	c.Phase = r.phase
	c.Marshal(r.cq[r.cqTail%r.depth*CQESize:])
	if r.cqTail++; r.cqTail%r.depth == 0 {
		r.phase = !r.phase
	}
	return true
}

func (r *eagerRings) poll() (CQE, bool) {
	c := UnmarshalCQE(r.cq[r.cqHead%r.depth*CQESize:])
	if c.Phase != r.hostPh {
		return CQE{}, false
	}
	if r.cqHead++; r.cqHead%r.depth == 0 {
		r.hostPh = !r.hostPh
	}
	return c, true
}

// FuzzRingImage drives a queue pair and the eager oracle with the same
// Push/Pop/Post/Poll sequence. Every consume must agree with the oracle's
// byte-decoded answer (including Poll's phase decision on an empty or
// wrapped ring), and after every Sync the ring memory must equal the
// oracle's.
func FuzzRingImage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 2, 3, 4})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 4, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 2, 2, 2, 2, 2, 2, 3, 4})
	// Three laps of a depth-2 ring between Syncs: older entries were
	// overwritten in place and only the last lap is in memory.
	f.Add(append(bytes.Repeat([]byte{0, 1, 2, 3}, 7), 4))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 3, 0, 4, 2, 2, 3}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		depth := uint32(2 + ops[0]%7)
		sqMem, cqMem := make([]byte, depth*SQESize), make([]byte, depth*CQESize)
		qp := NewQueuePair(sim.New(), "fuzz", sqMem, cqMem, depth)
		want := newEagerRings(depth)
		for i, op := range ops[1:] {
			n := uint64(i)
			switch op % 5 {
			case 0:
				e := SQE{Opcode: Opcode(op >> 6), CID: uint16(n * 0x9e37), NSID: 1,
					PRP1: n << 40, SLBA: n * 0x1_0001, NLB: uint32(n) + 1}
				if got := qp.SQ.Push(e) == nil; got != want.push(e) {
					t.Fatalf("op %d: Push accepted = %v, oracle disagrees", i, got)
				}
			case 1:
				got, err := qp.SQ.Pop()
				exp, ok := want.pop()
				if (err == nil) != ok || got != exp {
					t.Fatalf("op %d: Pop = %+v, %v; oracle %+v, %v", i, got, err, exp, ok)
				}
			case 2:
				c := CQE{CID: uint16(n * 0x85eb), SQHead: uint16(qp.SQ.Head()), Status: Status(op >> 5)}
				if !want.post(c) {
					if !qp.CQ.Full() {
						t.Fatalf("op %d: oracle CQ full, ring not", i)
					}
					continue
				}
				qp.CQ.Post(c)
			case 3:
				got, ok := qp.CQ.Poll()
				exp, expOK := want.poll()
				if ok != expOK || got != exp {
					t.Fatalf("op %d: Poll = %+v, %v; oracle %+v, %v", i, got, ok, exp, expOK)
				}
			case 4:
				qp.Sync()
				if !bytes.Equal(sqMem, want.sq) {
					t.Fatalf("op %d: SQ memory differs from the eager image", i)
				}
				if !bytes.Equal(cqMem, want.cq) {
					t.Fatalf("op %d: CQ memory differs from the eager image", i)
				}
			}
		}
		qp.Sync()
		if !bytes.Equal(sqMem, want.sq) || !bytes.Equal(cqMem, want.cq) {
			t.Fatal("final ring memory differs from the eager image")
		}
	})
}

// roundtrip is one command through a queue pair: push, fetch, post, reap.
func roundtrip(qp *QueuePair, i int) {
	sqe := SQE{Opcode: OpRead, CID: uint16(i), NSID: 1, PRP1: 0x1000, SLBA: uint64(i) * 8, NLB: 8}
	if err := qp.SQ.Push(sqe); err != nil {
		panic(err)
	}
	got, err := qp.SQ.Pop()
	if err != nil {
		panic(err)
	}
	qp.CQ.Post(CQE{CID: got.CID, SQHead: uint16(qp.SQ.Head())})
	if c, ok := qp.CQ.Poll(); !ok || c.CID != sqe.CID {
		panic("completion lost")
	}
	qp.CQ.OnPost.Reset()
}

func newBenchPair() *QueuePair {
	const depth = 64
	return NewQueuePair(sim.New(), "bench", make([]byte, depth*SQESize), make([]byte, depth*CQESize), depth)
}

// BenchmarkRingRoundtrip is the nvme layer's host cost per command (the same
// sequence bench's nvme.ns_per_roundtrip drive runs); it fails if a round
// trip allocates.
func BenchmarkRingRoundtrip(b *testing.B) {
	qp := newBenchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundtrip(qp, i)
	}
	b.StopTimer()
	i := 0
	if a := testing.AllocsPerRun(1000, func() { roundtrip(qp, i); i++ }); a != 0 {
		b.Fatalf("%v allocs per ring round trip, want 0", a)
	}
}
