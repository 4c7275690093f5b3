package ssd

import (
	"testing"

	"camsim/internal/fault"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
)

// injRig builds a device rig like newRig, but installs a fault injector
// before the controller starts.
func injRig(t *testing.T, tune func(*fault.Plan)) *rig {
	t.Helper()
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	dev := New(e, "nvme0", DefaultConfig(), fab, space)
	plan := fault.NewPlan(7)
	tune(plan)
	dev.SetFaultInjector(plan.Injector(0))
	sqMem := hm.Alloc("sq", int64(64*nvme.SQESize))
	cqMem := hm.Alloc("cq", int64(64*nvme.CQESize))
	qp := dev.CreateQueuePair("qp0", sqMem.MakeEager(), cqMem.MakeEager(), 64)
	dev.Start()
	return &rig{e: e, space: space, fab: fab, hm: hm, dev: dev, qp: qp}
}

func TestInjectedMediaErrorMovesNoData(t *testing.T) {
	r := injRig(t, func(p *fault.Plan) { p.ErrRate = 1 })
	buf := r.hm.Alloc("b", 4096)
	for i := range buf.Payload().Bytes() {
		buf.Payload().Bytes()[i] = 0xEE
	}
	var cqe nvme.CQE
	r.e.Go("host", func(p *sim.Proc) {
		cqe = r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
	})
	r.e.Run()
	if cqe.Status != nvme.StatusMediaError {
		t.Fatalf("status = %v, want media error", cqe.Status)
	}
	for _, b := range buf.Payload().Bytes() {
		if b != 0xEE {
			t.Fatal("failed read DMAed data into the host buffer")
		}
	}
	st := r.dev.Stats()
	if st.ErrCmds != 1 || st.ReadCmds != 1 {
		t.Fatalf("stats %+v: want ErrCmds=1 ReadCmds=1", st)
	}
	if inj := r.dev.Injector().Stats(); inj.Errors != 1 {
		t.Fatalf("injector stats %+v", inj)
	}
}

func TestInjectedDropPostsNoCQE(t *testing.T) {
	r := injRig(t, func(p *fault.Plan) { p.DropRate = 1 })
	buf := r.hm.Alloc("b", 4096)
	r.e.Go("host", func(p *sim.Proc) {
		if err := r.qp.SQ.Push(nvme.SQE{Opcode: nvme.OpRead, CID: 3, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8}); err != nil {
			t.Error(err)
			return
		}
		r.dev.Ring(r.qp)
	})
	r.e.Run() // quiesces: the device swallowed the command
	if _, ok := r.qp.CQ.Poll(); ok {
		t.Fatal("dropped command posted a CQE")
	}
	if res := r.dev.Abort(r.qp, 3); res != AbortDropped {
		t.Fatalf("Abort = %v, want AbortDropped", res)
	}
	// A second abort of the same CID finds nothing.
	if res := r.dev.Abort(r.qp, 3); res != AbortNotFound {
		t.Fatalf("second Abort = %v, want AbortNotFound", res)
	}
	if inj := r.dev.Injector().Stats(); inj.Drops != 1 {
		t.Fatalf("injector stats %+v", inj)
	}
}

func TestAbortInFlightSuppressesCQE(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	buf := r.hm.Alloc("b", 4096)
	var res AbortResult
	r.e.Go("host", func(p *sim.Proc) {
		if err := r.qp.SQ.Push(nvme.SQE{Opcode: nvme.OpRead, CID: 9, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8}); err != nil {
			t.Error(err)
			return
		}
		r.dev.Ring(r.qp)
		p.Sleep(5 * sim.Microsecond) // inside the ~15us media read
		res = r.dev.Abort(r.qp, 9)
	})
	r.e.Run()
	if res != AbortInFlight {
		t.Fatalf("Abort = %v, want AbortInFlight", res)
	}
	if _, ok := r.qp.CQ.Poll(); ok {
		t.Fatal("aborted command still posted its CQE")
	}
}

func TestAbortAfterCompletionNotFound(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	buf := r.hm.Alloc("b", 4096)
	r.e.Go("host", func(p *sim.Proc) {
		cqe := r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 4, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		if cqe.Status != nvme.StatusSuccess {
			t.Errorf("status = %v", cqe.Status)
		}
	})
	r.e.Run()
	if res := r.dev.Abort(r.qp, 4); res != AbortNotFound {
		t.Fatalf("Abort after completion = %v, want AbortNotFound", res)
	}
}

func TestInjectedSlowStretchesLatency(t *testing.T) {
	lat := func(tune func(*fault.Plan)) sim.Time {
		var r *rig
		if tune == nil {
			r = newRig(t, DefaultConfig(), 64)
		} else {
			r = injRig(t, tune)
		}
		buf := r.hm.Alloc("b", 4096)
		r.e.Go("host", func(p *sim.Proc) {
			r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		})
		end := r.e.Run()
		return end
	}
	base := lat(nil)
	slow := lat(func(p *fault.Plan) { p.SlowRate = 1; p.SlowFactor = 8 })
	if slow < base*3 {
		t.Fatalf("slow run %v not much slower than base %v", slow, base)
	}
}
