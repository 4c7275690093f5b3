package spdk

import (
	"testing"

	"camsim/internal/fault"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// armedConfig is DefaultConfig with a recovery policy of the tests' own: its
// deadline is set, so New keeps every field as given.
func armedConfig() Config {
	cfg := DefaultConfig()
	cfg.CmdTimeout = 5 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 100 * sim.Microsecond
	cfg.FailThreshold = 4
	return cfg
}

// injectAll installs one plan's injectors across a rig's devices.
func (r *rig) injectAll(plan *fault.Plan) {
	for i, dev := range r.devs {
		dev.SetFaultInjector(plan.Injector(i))
	}
}

// TestPooledErrorStatusSurvives pins the silent-drop bug: a pooled request
// completed through the Done-signal path used to be recycled by the reactor
// before its waiter resumed, so the waiter read a zeroed Status — a failed
// command reported as success. The driver must leave Done-waited requests
// alone: they are their waiter's.
func TestPooledErrorStatusSurvives(t *testing.T) {
	r := newRig(1)
	plan := fault.NewPlan(1)
	plan.ErrRate = 1 // every command fails with a media error
	r.injectAll(plan)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)

	req := d.GetRequest()
	req.Op, req.Dev, req.SLBA, req.NLB, req.Addr = nvme.OpRead, 0, 0, 8, buf.Addr
	var got nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		d.Submit(req)
		p.Wait(&req.Done)
		got = req.Status // must still be the failure, not a recycled zero
	})
	r.e.Run()
	if got != nvme.StatusMediaError {
		t.Fatalf("waiter read status %v, want media error (recycled under the waiter?)", got)
	}
}

// TestSinkPooledRequestsRecycle covers the other half of the contract: a
// Sink-consumed pooled request is recycled automatically after RequestDone.
func TestSinkPooledRequestsRecycle(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	sink := &recordingSink{}
	req := d.GetRequest()
	req.Op, req.Dev, req.SLBA, req.NLB, req.Addr = nvme.OpRead, 0, 0, 8, buf.Addr
	req.Sink = sink
	r.e.Go("host", func(p *sim.Proc) { d.Submit(req) })
	r.e.Run()
	if sink.n != 1 || sink.last != nvme.StatusSuccess {
		t.Fatalf("sink saw n=%d status=%v", sink.n, sink.last)
	}
	if d.GetRequest() != req {
		t.Fatal("sink-completed pooled request was not recycled")
	}
}

type recordingSink struct {
	n    int
	last nvme.Status
}

func (s *recordingSink) RequestDone(r *Request) { s.n++; s.last = r.Status }

// TestRetryRecoversMediaErrors: with a 30% injected error rate and retries
// armed, most commands succeed eventually and the recovery counters add up.
func TestRetryRecoversMediaErrors(t *testing.T) {
	run := func() (RecoveryStats, int, sim.Time) {
		r := newRig(1)
		plan := fault.NewPlan(3)
		plan.ErrRate = 0.3
		r.injectAll(plan)
		d := New(r.e, armedConfig(), r.hm, r.space, r.devs, 1)
		r.startAll(d)
		buf := r.hm.Alloc("b", 4096)
		const n = 100
		okCount := 0
		r.e.Go("host", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: uint64(i) * 8, NLB: 8, Addr: buf.Addr}
				d.Submit(req)
				p.Wait(&req.Done)
				if req.Status == nvme.StatusSuccess {
					okCount++
				}
			}
		})
		end := r.e.Run()
		return d.Recovery(), okCount, end
	}
	rec, ok, end1 := run()
	if rec.Retries == 0 || rec.Recovered == 0 {
		t.Fatalf("no retries/recoveries recorded: %+v", rec)
	}
	if uint64(ok)+rec.FailedRequests != 100 {
		t.Fatalf("successes %d + failures %d != 100", ok, rec.FailedRequests)
	}
	if ok < 90 {
		t.Fatalf("only %d/100 recovered with 3 retries at 30%% error rate", ok)
	}
	// Deterministic replay: identical counters and end time.
	rec2, ok2, end2 := run()
	if rec != rec2 || ok != ok2 || end1 != end2 {
		t.Fatalf("replay diverged: %+v/%d/%v vs %+v/%d/%v", rec, ok, end1, rec2, ok2, end2)
	}
}

// TestDroppedCommandTimesOut: a silently dropped command must surface as
// StatusCmdTimeout after its retries also drop — and the engine must not
// wedge while the only pending work is the unanswered command.
func TestDroppedCommandTimesOut(t *testing.T) {
	r := newRig(1)
	plan := fault.NewPlan(2)
	plan.DropRate = 1
	r.injectAll(plan)
	cfg := armedConfig()
	cfg.MaxRetries = 1
	cfg.FailThreshold = 0 // keep the device "alive" to count pure timeouts
	d := New(r.e, cfg, r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: 0, NLB: 8, Addr: buf.Addr}
	var status nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		d.Submit(req)
		p.Wait(&req.Done)
		status = req.Status
	})
	end := r.e.Run()
	if status != nvme.StatusCmdTimeout {
		t.Fatalf("status = %v, want command timeout", status)
	}
	rec := d.Recovery()
	if rec.Timeouts != 2 || rec.Retries != 1 || rec.FailedRequests != 1 {
		t.Fatalf("recovery %+v: want 2 timeouts, 1 retry, 1 failure", rec)
	}
	if req.attempts != 2 {
		t.Fatalf("attempts = %d, want 2", req.attempts)
	}
	// Two full deadlines plus one backoff, not an idle-forever stall.
	if min := 2 * cfg.CmdTimeout; end < min || end > min+sim.Millisecond {
		t.Fatalf("end time %v outside expected window around %v", end, min)
	}
}

// TestDeviceFailureDegradesGracefully: a device that stops answering is
// declared dead after FailThreshold consecutive timeouts; its traffic fails
// fast while the surviving device keeps serving.
func TestDeviceFailureDegradesGracefully(t *testing.T) {
	r := newRig(2)
	plan := fault.NewPlan(4)
	plan.FailDev, plan.FailAt = 0, 0 // device 0 never answers
	r.injectAll(plan)
	cfg := armedConfig()
	cfg.FailThreshold = 2
	d := New(r.e, cfg, r.hm, r.space, r.devs, 2)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	const n = 8
	statuses := make([]nvme.Status, 2*n)
	r.e.Go("host", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 2*n; i++ {
			req := &Request{Op: nvme.OpRead, Dev: i % 2, SLBA: uint64(i) * 8, NLB: 8, Addr: buf.Addr}
			d.Submit(req)
			reqs = append(reqs, req)
		}
		for i, req := range reqs {
			p.Wait(&req.Done)
			statuses[i] = req.Status
		}
	})
	r.e.Run()
	for i, st := range statuses {
		if i%2 == 0 { // device 0: everything fails
			if st == nvme.StatusSuccess {
				t.Fatalf("request %d on dead device succeeded", i)
			}
		} else if st != nvme.StatusSuccess {
			t.Fatalf("request %d on healthy device failed: %v", i, st)
		}
	}
	if !d.failed[0] || d.failed[1] {
		t.Fatalf("failed: dev0=%v dev1=%v", d.failed[0], d.failed[1])
	}
	rec := d.Recovery()
	if rec.DeviceFailures != 1 {
		t.Fatalf("DeviceFailures = %d, want 1", rec.DeviceFailures)
	}
	if rec.FastFails == 0 {
		t.Fatalf("no fast-fails after device death: %+v", rec)
	}
	if rec.FailedRequests != n {
		t.Fatalf("FailedRequests = %d, want %d", rec.FailedRequests, n)
	}

	// Post-mortem submissions fail fast without burning a timeout.
	var late nvme.Status
	start := r.e.Now()
	r.e.Go("late", func(p *sim.Proc) {
		req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: 0, NLB: 8, Addr: buf.Addr}
		d.Submit(req)
		p.Wait(&req.Done)
		late = req.Status
	})
	end := r.e.Run()
	if late != nvme.StatusDevFailed {
		t.Fatalf("post-mortem status = %v, want dev-failed", late)
	}
	if end-start >= cfg.CmdTimeout {
		t.Fatalf("fast-fail took %v, a full timeout", end-start)
	}
}

// TestNewArmsRecoveryFromFaultedDevices pins the one arming rule: New arms
// the calibrated policy (ArmRecovery) exactly when some device it drives
// carries a fault injector and the config leaves CmdTimeout at 0. A caller
// who sets the deadline keeps its whole policy as given, and a fault-free
// machine stays disarmed, so its runs replay the schedule of a driver
// without the recovery machinery.
func TestNewArmsRecoveryFromFaultedDevices(t *testing.T) {
	armed := DefaultConfig()
	armed.ArmRecovery()
	explicit := armedConfig()
	explicit.MaxRetries, explicit.FailThreshold = 1, 2
	plan := fault.NewPlan(1)
	plan.ErrRate = 1e-4
	for _, c := range []struct {
		name    string
		cfg     Config
		faulted bool // device 1 of 2 carries an injector
		want    Config
	}{
		{"fault-free", DefaultConfig(), false, Config{QueueDepth: DefaultConfig().QueueDepth}},
		{"one faulted device", DefaultConfig(), true, armed},
		{"explicit policy", explicit, true, explicit},
		{"explicit policy, fault-free", explicit, false, explicit},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(2)
			if c.faulted {
				r.devs[1].SetFaultInjector(plan.Injector(1))
			}
			if d := New(r.e, c.cfg, r.hm, r.space, r.devs, 1); d.cfg != c.want {
				t.Fatalf("driver runs %+v, want %+v", d.cfg, c.want)
			}
		})
	}
}

// TestRequestReusableAfterDone pins the contract a closed loop's request
// window relies on: a request without a Sink is its Done waiter's, and once
// Done has fired it may be zeroed and submitted again. One record reused 64
// times, under injected errors and drops with recovery armed, must complete
// with the statuses and recovery counters of a run that takes a fresh
// record per submission; a stale attempt count, deadline or signal left in
// the driver would show here.
func TestRequestReusableAfterDone(t *testing.T) {
	const n = 64
	run := func(reuse bool) ([]nvme.Status, RecoveryStats) {
		r := newRig(1)
		plan := fault.NewPlan(5)
		plan.ErrRate, plan.DropRate = 0.3, 0.1
		r.injectAll(plan)
		cfg := armedConfig()
		cfg.FailThreshold = 0 // count retries and failures, not a dead device
		d := New(r.e, cfg, r.hm, r.space, r.devs, 1)
		r.startAll(d)
		buf := r.hm.Alloc("b", 4096)
		var statuses []nvme.Status
		rec := &Request{}
		r.e.Go("host", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				req := &Request{}
				if reuse {
					req = rec
					*req = Request{}
				}
				req.Op, req.Dev, req.SLBA, req.NLB, req.Addr = nvme.OpRead, 0, uint64(i)*8, 8, buf.Addr
				d.Submit(req)
				p.Wait(&req.Done)
				statuses = append(statuses, req.Status)
			}
		})
		r.e.Run()
		return statuses, d.Recovery()
	}
	fresh, freshRec := run(false)
	reused, reusedRec := run(true)
	if freshRec.Retries == 0 || freshRec.Recovered == 0 || freshRec.Timeouts == 0 {
		t.Fatalf("fault plan exercised too little recovery: %+v", freshRec)
	}
	if len(reused) != n || len(fresh) != n {
		t.Fatalf("completed %d reused and %d fresh requests, want %d each", len(reused), len(fresh), n)
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Errorf("request %d: reused record completed %v, fresh record %v", i, reused[i], fresh[i])
		}
	}
	if reusedRec.Retries != freshRec.Retries || reusedRec.Recovered != freshRec.Recovered ||
		reusedRec.FailedRequests != freshRec.FailedRequests {
		t.Errorf("recovery with a reused record %+v, with fresh records %+v", reusedRec, freshRec)
	}
}
