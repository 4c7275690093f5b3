package sim

import (
	"fmt"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(-100, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("time moved backwards: %v", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	e.Run()
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
}

func TestProcSleepUntilPast(t *testing.T) {
	e := New()
	var wake Time
	e.Go("p", func(p *Proc) {
		p.Sleep(50)
		p.SleepUntil(10) // in the past: acts as yield
		wake = p.Now()
	})
	e.Run()
	if wake != 50 {
		t.Fatalf("woke at %v, want 50", wake)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
					p.Sleep(10)
				}
			})
		}
		e.Run()
		return trace
	}
	t1, t2 := run(), run()
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatalf("nondeterministic traces:\n%v\n%v", t1, t2)
	}
	want := "[a0@0 b0@0 a1@10 b1@10 a2@20 b2@20]"
	if fmt.Sprint(t1) != want {
		t.Fatalf("trace = %v, want %v", t1, want)
	}
}

func TestSignalFireWakesWaiters(t *testing.T) {
	e := New()
	s := e.NewSignal("go")
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprint("w", i), func(p *Proc) {
			p.Wait(s)
			woke = append(woke, p.Now())
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(42)
		s.Fire()
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 42 {
			t.Fatalf("waiter woke at %v, want 42", w)
		}
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := New()
	s := e.NewSignal("pre")
	var at Time = -1
	e.Go("f", func(p *Proc) { s.Fire() })
	e.Go("w", func(p *Proc) {
		p.Sleep(5)
		p.Wait(s)
		at = p.Now()
	})
	e.Run()
	if at != 5 {
		t.Fatalf("waiter resumed at %v, want 5", at)
	}
}

func TestSignalFireIdempotent(t *testing.T) {
	e := New()
	s := e.NewSignal("x")
	e.Go("f", func(p *Proc) {
		s.Fire()
		s.Fire() // must not panic or double-wake
	})
	e.Run()
	if !s.Fired() {
		t.Fatal("signal not fired")
	}
}

func TestSignalReset(t *testing.T) {
	e := New()
	s := e.NewSignal("r")
	count := 0
	e.Go("w", func(p *Proc) {
		p.Wait(s)
		count++
		s.Reset()
		p.Wait(s)
		count++
	})
	e.Go("f", func(p *Proc) {
		p.Sleep(10)
		s.Fire()
		p.Sleep(10)
		s.Fire()
	})
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// timedWait is the deadline idiom the pollers use: park a callback on the
// signal, arm a timer, and let whichever runs first disarm the other. The
// timer only acts if the callback still waits (Fire removes waiters
// synchronously, so at an exact tie the already-processed Fire wins and the
// timer becomes a no-op instead of a second wake).
type timedWait struct {
	e              *Engine
	t              *Timer
	fired, expired int
	at             Time
}

func (w *timedWait) Run() {
	w.fired++
	w.at = w.e.Now()
	w.t.Cancel()
}

func startTimedWait(e *Engine, s *Signal, d Time) *timedWait {
	w := &timedWait{e: e}
	s.WaitCallback(0, w)
	w.t = e.ScheduleTimer(d, func() {
		if s.CancelWaitCallback(w) {
			w.expired++
			w.at = e.Now()
		}
	})
	return w
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := New()
	s := e.NewSignal("never")
	w := startTimedWait(e, s, 100)
	e.Run()
	if w.fired != 0 || w.expired != 1 {
		t.Fatalf("fired %d, expired %d for an unfired signal; want the timeout alone", w.fired, w.expired)
	}
	if w.at != 100 {
		t.Fatalf("timeout at %v, want 100", w.at)
	}
	if s.first.cb != nil || len(s.waiters) != 0 {
		t.Fatalf("stale waiter left on signal")
	}
}

func TestWaitTimeoutSignalWins(t *testing.T) {
	// The signal wins when it fires first, and also at an exact tie with
	// the deadline when its Fire was scheduled first.
	for _, fireAt := range []Time{30, 100} {
		e := New()
		s := e.NewSignal("soon")
		e.Schedule(fireAt, s.Fire)
		w := startTimedWait(e, s, 100)
		e.Run()
		if w.fired != 1 || w.expired != 0 {
			t.Fatalf("fire at %v: fired %d, expired %d; want the signal alone", fireAt, w.fired, w.expired)
		}
		if w.at != fireAt {
			t.Fatalf("fire at %v: woke at %v", fireAt, w.at)
		}
	}
}

func TestWaitTimeoutAlreadyFired(t *testing.T) {
	e := New()
	s := e.NewSignal("pre")
	s.Fire()
	w := startTimedWait(e, s, 50)
	e.Run()
	if w.fired != 1 || w.expired != 0 || w.at != 0 {
		t.Fatalf("fired %d, expired %d at %v on a fired signal; want one immediate wake", w.fired, w.expired, w.at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var ran []int64
	for _, d := range []Time{10, 20, 30} {
		d := d
		e.Schedule(d, func() { ran = append(ran, int64(d)) })
	}
	e.RunUntil(20)
	if fmt.Sprint(ran) != "[10 20]" {
		t.Fatalf("ran = %v", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fmt.Sprint(ran) != "[10 20 30]" {
		t.Fatalf("after resume ran = %v", ran)
	}
}

func TestLiveCountsProcesses(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) { p.Sleep(10) })
	if e.Live() != 1 {
		t.Fatalf("Live = %d before run, want 1", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after run, want 0", e.Live())
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ns",
		1500:            "1.500us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestNestedGoFromProc(t *testing.T) {
	e := New()
	var childAt Time = -1
	e.Go("parent", func(p *Proc) {
		p.Sleep(7)
		e.Go("child", func(c *Proc) {
			childAt = c.Now()
		})
		p.Sleep(1)
	})
	e.Run()
	if childAt != 7 {
		t.Fatalf("child started at %v, want 7", childAt)
	}
}

// sigOwner is a record with its completion signal inside it, the way
// cam.Batch or spdk.Request carry theirs.
type sigOwner struct {
	id   int
	done Signal
}

func TestSignalEmbeddedInit(t *testing.T) {
	e := New()
	var o sigOwner
	o.done.Init(e, "owner.done")
	var at Time = -1
	e.Go("w", func(p *Proc) {
		p.Wait(&o.done)
		at = p.Now()
	})
	e.Schedule(7, o.done.Fire)
	e.Run()
	if at != 7 || !o.done.Fired() {
		t.Fatalf("waiter on an embedded signal resumed at %v (fired %v), want 7", at, o.done.Fired())
	}
	// Init re-arms a recycled owner's signal, and refuses while one waits.
	o.done.Init(e, "owner.done")
	if o.done.Fired() {
		t.Fatal("Init left the signal fired")
	}
	o.done.WaitCallback(0, funcCallback(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("Init on a signal with a waiter did not panic")
		}
	}()
	o.done.Init(e, "owner.done")
}

// TestSignalOneWaiterAllocatesNothing: the first waiter sits in the signal's
// inline slot, fresh signal or re-armed one.
func TestSignalOneWaiterAllocatesNothing(t *testing.T) {
	e := New()
	var o sigOwner
	woke := 0
	cb := funcCallback(func() { woke++ })
	if n := testing.AllocsPerRun(100, func() {
		o.done.Init(e, "owner.done")
		o.done.WaitCallback(0, cb)
		o.done.Fire()
		e.Run()
	}); n != 0 {
		t.Fatalf("%v allocations per Init/Wait/Fire cycle with one waiter, want 0", n)
	}
	if woke != 101 {
		t.Fatalf("waiter ran %d times over 101 cycles", woke)
	}
	if o.done.waiters != nil {
		t.Fatal("a lone waiter spilled out of the inline slot")
	}
}

// TestSignalWaitersWakeInRegistrationOrder: waiters past the first spill to
// the list and still wake in the order they registered, inline ones at the
// fire, scheduled ones after it.
func TestSignalWaitersWakeInRegistrationOrder(t *testing.T) {
	e := New()
	s := e.NewSignal("order")
	var order []string
	note := func(tag string) Callback { return funcCallback(func() { order = append(order, tag) }) }
	s.WaitCallback(0, note("a"))
	s.WaitInline(note("B"))
	s.WaitCallback(0, note("c"))
	s.WaitCallback(0, note("d"))
	e.Schedule(3, func() {
		s.Fire()
		order = append(order, "|")
	})
	e.Run()
	if got := fmt.Sprint(order); got != "[B | a c d]" {
		t.Fatalf("wake order %v, want the inline waiter inside Fire, then a c d", got)
	}
	// Reset, then one waiter: back in the inline slot, the list untouched.
	s.Reset()
	s.WaitCallback(0, note("e"))
	if s.first.cb == nil || len(s.waiters) != 0 {
		t.Fatalf("after Reset the lone waiter is not in the inline slot (list holds %d)", len(s.waiters))
	}
}

func TestSignalCancelPromotesNextWaiter(t *testing.T) {
	e := New()
	s := e.NewSignal("cancel")
	var order []string
	cbs := map[string]Callback{} // pointers: CancelWaitCallback compares them
	for _, tag := range []string{"a", "b", "c"} {
		cbs[tag] = &Timer{fn: func() { order = append(order, tag) }}
	}
	s.WaitCallback(0, cbs["a"])
	s.WaitCallback(0, cbs["b"])
	s.WaitCallback(0, cbs["c"])
	if !s.CancelWaitCallback(cbs["a"]) || s.CancelWaitCallback(cbs["a"]) {
		t.Fatal("cancelling the inline waiter: want true once, then false")
	}
	s.Fire()
	e.Run()
	if got := fmt.Sprint(order); got != "[b c]" {
		t.Fatalf("woke %v after cancelling a, want [b c]", got)
	}
}

// rearmer is an inline waiter that re-arms the signal it is being fired
// from, the way a poller resets its doorbell and parks again.
type rearmer struct {
	s     *Signal
	runs  int
	extra Callback
}

func (r *rearmer) Run() {
	r.runs++
	if r.runs == 1 {
		r.s.Reset()
		r.s.WaitInline(r)
		r.s.WaitCallback(0, r.extra)
	}
}

// TestSignalRearmDuringFire: waiters registered from inside Fire land on a
// fresh slot and list, so the walk in progress neither runs them nor loses
// the ones it still has to wake.
func TestSignalRearmDuringFire(t *testing.T) {
	e := New()
	s := e.NewSignal("rearm")
	var order []string
	note := func(tag string) Callback { return funcCallback(func() { order = append(order, tag) }) }
	r := &rearmer{s: s, extra: note("x")}
	s.WaitInline(r)
	s.WaitCallback(0, note("b"))
	s.WaitCallback(0, note("c"))
	s.Fire()
	e.Run()
	if r.runs != 1 || fmt.Sprint(order) != "[b c]" {
		t.Fatalf("first fire: rearmer ran %d times, woke %v; want 1 and [b c]", r.runs, order)
	}
	if s.Fired() || s.first.cb != Callback(r) || len(s.waiters) != 1 {
		t.Fatalf("re-armed waiters did not survive the fire: fired %v, %d spilled", s.Fired(), len(s.waiters))
	}
	s.Fire()
	e.Run()
	if r.runs != 2 || fmt.Sprint(order) != "[b c x]" {
		t.Fatalf("second fire: rearmer ran %d times, woke %v; want 2 and [b c x]", r.runs, order)
	}
}
