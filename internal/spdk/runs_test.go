package spdk

import (
	"slices"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// instantSink records each delivery: its opcode, the engine's clock when
// the reactor routed it, and the completion instant it carries.
type instantSink struct {
	e       *sim.Engine
	op      []nvme.Opcode
	now, at []sim.Time
}

func (s *instantSink) RequestDone(r *Request) {
	if r.Status != nvme.StatusSuccess {
		panic("request failed: " + r.Status.String())
	}
	s.op = append(s.op, r.Op)
	s.now = append(s.now, s.e.Now())
	s.at = append(s.at, r.At)
}

// TestRunInstants: a run keeps the instants the per-command loop gives.
// A submission run pushes request i at t0 + (i+1)·SPDKSubmitCost, whichever
// device it targets, and the device counts the command's latency from
// there. A completion run delivers its j-th request at t0 +
// (j+1)·SPDKCompleteCost plus the submit cost of each deferred request
// admitted before it.
func TestRunInstants(t *testing.T) {
	S, C := calib.SPDKSubmitCost(), calib.SPDKCompleteCost()

	// Six reads, alternating over two devices, queued before the reactor's
	// first sweep at 0: one submission run. The tag table hands each
	// device's CIDs out from 0, so CID k of device dev is request dev+2k.
	r := newRig(2)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	sink := &instantSink{e: r.e}
	for i := 0; i < 6; i++ {
		d.Submit(&Request{Op: nvme.OpRead, Dev: i % 2, SLBA: uint64(8 * i), NLB: 8, Addr: buf.Addr, Sink: sink})
	}
	r.e.Run()
	for dev := 0; dev < 2; dev++ {
		for k := 0; k < 3; k++ {
			got := r.devs[dev].SubmitTime(d.reactors[0].dq[dev].qp, uint16(k))
			if want := sim.Time(dev+2*k+1) * S; got != want {
				t.Errorf("device %d CID %d arrived at %v, want %v", dev, k, got, want)
			}
		}
	}
	if len(sink.at) != 6 {
		t.Fatalf("%d of 6 reads delivered", len(sink.at))
	}

	// The same on a device two drivers share: its SQEs wait for their
	// instants instead of being pushed ahead of the clock, and arrive at
	// the same ones — so the other driver's read, arriving at 1025 ns,
	// takes the frontend before the third, arriving at 1230 ns, and
	// completes first.
	r = newRig(1)
	d = New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	other := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	other.Start()
	if n := r.devs[0].QueuePairs(); n != 2 {
		t.Fatalf("the shared device serves %d queue pairs, want 2", n)
	}
	buf = r.hm.Alloc("b", 4096)
	sink = &instantSink{e: r.e}
	for i := 0; i < 3; i++ {
		d.Submit(&Request{Op: nvme.OpRead, SLBA: uint64(8 * i), NLB: 8, Addr: buf.Addr, Sink: sink})
	}
	late := &instantSink{e: r.e}
	r.e.Go("other", func(p *sim.Proc) {
		p.Sleep(S + S/2)
		other.Submit(&Request{Op: nvme.OpRead, SLBA: 64, NLB: 8, Addr: buf.Addr, Sink: late})
	})
	r.e.Run()
	if len(late.at) != 1 || len(sink.at) != 3 || late.at[0] >= sink.at[2] {
		t.Errorf("shared device: the other driver's read completed at %v, the third at %v; want it first", late.at, sink.at)
	}
	for k := 0; k < 3; k++ {
		if got, want := r.devs[0].SubmitTime(d.reactors[0].dq[0].qp, uint16(k)), sim.Time(k+1)*S; got != want {
			t.Errorf("shared device: CID %d arrived at %v, want %v", k, got, want)
		}
	}
	if len(sink.at) != 3 {
		t.Fatalf("shared device: %d of 3 reads delivered", len(sink.at))
	}

	// Twelve 512 B reads into GPU memory on one fast device whose pair
	// holds three: nine wait in the deferred queue, and the first nine
	// completions each admit one. CQEs post faster than the reactor routes
	// them, so runs route several.
	r = newRigIOPS(1, 10e6)
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	d = New(r.e, cfg, r.hm, r.space, r.devs, 1)
	r.startAll(d)
	gbuf := r.g.AllocPinned("b", 4096)
	sink = &instantSink{e: r.e}
	const n, deferred = 12, 9
	for i := 0; i < n; i++ {
		d.Submit(&Request{Op: nvme.OpRead, SLBA: uint64(i), NLB: 1, Addr: gbuf.Addr, Sink: sink})
	}
	r.e.Run()
	if len(sink.at) != n {
		t.Fatalf("%d of %d reads delivered", len(sink.at), n)
	}
	var at sim.Time
	longest, run := 0, 0
	for k := range sink.at {
		if k == 0 || sink.now[k] != sink.now[k-1] {
			at, run = sink.now[k], 0 // a new run starts at the clock
		}
		run++
		longest = max(longest, run)
		at += C
		if sink.at[k] != at {
			t.Errorf("delivery %d (routed at %v) carries %v, want %v", k, sink.now[k], sink.at[k], at)
		}
		if k < deferred {
			at += S
		}
	}
	if longest < 2 {
		t.Errorf("no completion run routed more than one CQE; the check needs one")
	}
}

// TestHostDRAMCrossingsAtTheirInstants: every reactor books the one host
// DRAM link, a FIFO that fills no gaps, so a crossing booked ahead of the
// clock would delay another reactor's earlier one. Reads into host DRAM
// are therefore routed when their instant comes, and writes from it pushed
// then, on two reactors at once: each read is delivered at the instant it
// carries, and each write's SQE arrives at a reactor event.
func TestHostDRAMCrossingsAtTheirInstants(t *testing.T) {
	S := calib.SPDKSubmitCost()
	r := newRigIOPS(2, 10e6)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 2)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	var steps []sim.Time
	r.e.OnDispatch(func(at sim.Time, _ uint64, cb sim.Callback) {
		if _, ok := cb.(*reactorStep); ok {
			steps = append(steps, at)
		}
	})
	sink := &instantSink{e: r.e}
	const n = 24
	for i := 0; i < n; i++ {
		op := nvme.OpRead
		if i%4 >= 2 {
			op = nvme.OpWrite
		}
		d.Submit(&Request{Op: op, Dev: i % 2, SLBA: uint64(i), NLB: 1, Addr: buf.Addr, Sink: sink})
	}
	r.e.Run()
	if len(sink.at) != n {
		t.Fatalf("%d of %d requests delivered", len(sink.at), n)
	}
	for k := range sink.at {
		if sink.op[k] == nvme.OpRead && sink.now[k] != sink.at[k] {
			t.Errorf("read delivery %d routed at %v, ahead of its instant %v", k, sink.now[k], sink.at[k])
		}
	}
	// Each device has its own reactor, and CIDs 1 and 3 of each are
	// writes, arriving in the reactor's first submission run.
	for dev := 0; dev < 2; dev++ {
		qp := d.reactors[dev].dq[dev].qp
		for _, cid := range []uint16{1, 3} {
			at := r.devs[dev].SubmitTime(qp, cid)
			if want := sim.Time(cid+1) * S; at != want {
				t.Errorf("device %d write CID %d arrived at %v, want %v", dev, cid, at, want)
			}
			if !slices.Contains(steps, at) {
				t.Errorf("device %d write CID %d arrived at %v, between reactor events", dev, cid, at)
			}
		}
	}
}
