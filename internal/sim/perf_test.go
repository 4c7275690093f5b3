package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The hot-path ceilings below pin the engine's allocation behavior: plain
// events, process wakeups, and store hand-offs must stay allocation-free in
// steady state. Each test prewarms first so one-time capacity growth (event
// queue, rings, free lists, coroutine creation) is excluded, then measures a
// batch and asserts a small absolute ceiling rather than exact zero to stay
// robust against incidental runtime allocations.

const allocBatch = 100

func TestAllocsPerScheduledEvent(t *testing.T) {
	e := New()
	fn := func() {}
	warm := func() {
		for i := 0; i < allocBatch; i++ {
			e.Schedule(Time(i), fn)
		}
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-event batch = %.1f, want <= 2 (%.3f/event)",
			allocBatch, avg, avg/allocBatch)
	}
}

func TestAllocsPerSleep(t *testing.T) {
	e := New()
	sleeper := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			p.Sleep(1)
		}
	}
	warm := func() {
		e.Go("sleeper", sleeper)
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-sleep process run = %.1f, want <= 2 (%.3f/wakeup)",
			allocBatch, avg, avg/allocBatch)
	}
}

// drainSink takes left items off a store, re-registering from StoreItem.
type drainSink struct {
	s    *Store[int]
	left int
}

func (d *drainSink) StoreItem(int, bool) {
	if d.left--; d.left > 0 {
		d.s.GetCallback(d)
	}
}

func TestAllocsPerStoreOp(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	producer := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			s.Put(i)
			p.Sleep(1)
		}
	}
	consumer := &drainSink{s: s}
	warm := func() {
		// Consumer first so every GetCallback parks and exercises the
		// getter-record recycling path, not just the buffered fast path.
		consumer.left = allocBatch
		s.GetCallback(consumer)
		e.Go("producer", producer)
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-item Put/Get run = %.1f, want <= 2 (%.3f/op)",
			allocBatch, avg, avg/allocBatch)
	}
}

// TestRingReleasedSlotsCleared is the regression test for the slice-shift
// retain bug: the old FIFO queues advanced with `q = q[1:]`, which kept
// every dequeued element reachable through the backing array until the next
// reallocation. Ring slots must be zeroed as they are released.
func TestRingReleasedSlotsCleared(t *testing.T) {
	var r ring[*int]
	for i := 0; i < 5; i++ {
		v := i
		r.pushBack(&v)
	}
	for r.len() > 0 {
		r.popFront()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("released ring slot %d still pins %v", i, *p)
		}
	}
}

func TestStoreReleasedSlotsCleared(t *testing.T) {
	e := New()
	s := NewStore[*int](e, "s")
	for i := 0; i < 5; i++ {
		v := i
		s.Put(&v)
	}
	for {
		if _, ok := s.TryGet(); !ok {
			break
		}
	}
	for i, p := range s.items.buf {
		if p != nil {
			t.Fatalf("drained store slot %d still pins %v", i, *p)
		}
	}
}

func TestShutdownReleasesBlockedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New()
	sig := e.NewSignal("never")
	res := e.NewResource("narrow", 1)
	cleanups := 0
	e.Go("wait-signal", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Wait(sig)
	})
	e.Go("hold", func(p *Proc) {
		defer func() { cleanups++ }()
		res.Acquire(p, 1)
		p.Wait(sig)
	})
	e.Go("wait-resource", func(p *Proc) {
		defer func() { cleanups++ }()
		res.Acquire(p, 1)
	})
	e.Go("finishes", func(p *Proc) { p.Sleep(10) })
	e.Run()

	if e.Live() != 3 {
		t.Fatalf("Live() = %d after quiescence, want 3 blocked processes", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", e.Live())
	}
	if cleanups != 3 {
		t.Fatalf("deferred cleanups ran %d times, want 3", cleanups)
	}

	awaitGoroutines(t, before)
}

func TestShutdownReleasesPooledProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) { p.Sleep(1) })
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0 (all workers finished)", e.Live())
	}
	e.Shutdown()
	awaitGoroutines(t, before)
}

// TestShutdownReleasesEveryProcessState covers the states a process
// coroutine can be in when Shutdown stops it: created but never switched
// into, a pooled coroutine handed out again but not yet run, blocked in Wait
// under a deferred cleanup that itself tries to block, and parked on the
// free list.
func TestShutdownReleasesEveryProcessState(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 4; i++ {
		e.Go("worker", func(p *Proc) { p.Sleep(1) })
	}
	sig := e.NewSignal("never")
	cleanup, afterSleep := false, false
	e.Go("wait-then-sleep", func(p *Proc) {
		defer func() {
			cleanup = true
			p.Sleep(5) // must keep unwinding, not hand control back
			afterSleep = true
		}()
		p.Wait(sig)
	})
	e.Run()
	if e.Live() != 1 || len(e.free) != 4 {
		t.Fatalf("Live() = %d, parked = %d; want 1 blocked and 4 parked", e.Live(), len(e.free))
	}
	ran := false
	e.Go("reused-never-run", func(p *Proc) { ran = true })
	if len(e.free) != 3 {
		t.Fatalf("Go did not reuse a parked coroutine: %d still parked, want 3", len(e.free))
	}
	parked := e.free
	e.free = nil // force the next Go to build a coroutine
	e.Go("fresh-never-run", func(p *Proc) { ran = true })
	e.free = parked
	if e.Live() != 3 {
		t.Fatalf("Live() = %d before Shutdown, want 3", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("after Shutdown: Live() = %d, Pending() = %d; want 0, 0", e.Live(), e.Pending())
	}
	if ran {
		t.Fatal("Shutdown ran a process that had never been switched into")
	}
	if !cleanup || afterSleep {
		t.Fatalf("deferred cleanup: ran = %v, continued past its Sleep = %v; want true, false", cleanup, afterSleep)
	}
	awaitGoroutines(t, before)
}

// TestProcPanicSurfacesInRun pins the panic contract: a panic in a process
// function arrives in the caller of Run, where it can be recovered; the
// engine is left outside any process with the panicked one gone from the
// live set, so Shutdown still works and releases everything else.
func TestProcPanicSurfacesInRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	sig := e.NewSignal("never")
	e.Go("bystander", func(p *Proc) { p.Wait(sig) })
	e.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic value", got)
	}
	if e.current != nil {
		t.Fatal("engine still inside a process after the panic")
	}
	if e.Live() != 1 {
		t.Fatalf("Live() = %d after the panic, want 1 (the bystander)", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", e.Live())
	}
	awaitGoroutines(t, before)
}

// awaitGoroutines waits for the goroutine count to fall back to a baseline
// taken before the test built its engine. Exited goroutines are reaped
// asynchronously, so it polls instead of demanding the count at once.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d long after Shutdown, baseline %d",
				runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownInsideRunPanics(t *testing.T) {
	e := New()
	e.Go("self-shutdown", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown from inside a running simulation did not panic")
			}
			// The test proc must still unwind through the normal path.
		}()
		e.Shutdown()
	})
	e.Run()
	e.Shutdown()
}

// benchChain is a callback that reschedules itself, one delay after
// another from a shared table, while the benchmark's event budget lasts.
type benchChain struct {
	e      *Engine
	delays []Time
	i      int
	left   *int
}

func (c *benchChain) Run() {
	if *c.left > 0 {
		*c.left--
		c.i++
		c.e.ScheduleCallback(c.delays[c.i&(len(c.delays)-1)], c)
	}
}

// BenchmarkEventQueue times one schedule-and-dispatch per op through each
// queue lane — the now ring, the calendar, the overflow heap with promotion
// — and through the mix the calendar was sized for: the cam-read-4k
// workload's delay histogram (DESIGN.md §6; 52 % 64–511 ns, 40 % 8 µs–1 ms,
// 7 % zero, the rest in between) at its ≈1 500 pending events.
func BenchmarkEventQueue(b *testing.B) {
	uniform := func(lo, hi Time) func(*RNG) Time {
		return func(r *RNG) Time { return lo + Time(r.Int63n(int64(hi-lo+1))) }
	}
	camread := func(r *RNG) Time {
		switch p := r.Int63n(100); {
		case p < 52:
			return uniform(64, 511)(r)
		case p < 92:
			return uniform(8*Microsecond, Millisecond)(r)
		case p < 99:
			return 0
		default:
			return uniform(512, 8*Microsecond)(r)
		}
	}
	for _, lane := range []struct {
		name   string
		chains int
		delay  func(*RNG) Time
	}{
		{"now", 64, func(*RNG) Time { return 0 }},
		{"near", 64, uniform(Microsecond, 400*Microsecond)},
		{"far", 64, uniform(Millisecond, 20*Millisecond)},
		{"camread-mix", 1500, camread},
	} {
		b.Run(lane.name, func(b *testing.B) {
			e := New()
			defer e.Shutdown()
			rng := NewRNG(42)
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = lane.delay(rng)
			}
			left := 0
			cs := make([]*benchChain, lane.chains)
			for i := range cs {
				cs[i] = &benchChain{e: e, delays: delays, i: i * 61, left: &left}
			}
			drive := func(n int) {
				left = n
				for _, c := range cs {
					c.Run()
				}
				e.Run()
			}
			drive(16 * lane.chains) // grow slab, run, ring and heap to their working sizes
			b.ReportAllocs()
			b.ResetTimer()
			drive(b.N)
		})
	}
}

// BenchmarkProcSwitch times one process round trip: a Sleep(1ns) schedules
// the resume event, switches out to the engine, and the engine switches back
// in when the event comes due.
func BenchmarkProcSwitch(b *testing.B) {
	e := New()
	defer e.Shutdown()
	n := 0
	sleeper := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	}
	n = 1000
	e.Go("sleeper", sleeper) // create the coroutine, grow the queue
	e.Run()
	n = b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("sleeper", sleeper)
	e.Run()
}

// boomCallback is a pooled-state-machine stand-in whose Run panics.
type boomCallback struct{ err error }

func (b *boomCallback) Run() { panic(b.err) }

// TestCallbackPanicSurfacesInRun pins the other half of the panic contract:
// a panic inside a plain callback reaches the caller of Run as a
// *CallbackPanic naming the event — (at, seq) and the callback's type — and
// wrapping the original value, and the engine can still be Shutdown.
func TestCallbackPanicSurfacesInRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	sig := e.NewSignal("never")
	e.Go("bystander", func(p *Proc) { p.Wait(sig) }) // seq 1
	e.Schedule(3, func() {})                         // seq 2
	boom := errors.New("boom")
	e.ScheduleCallback(7, &boomCallback{err: boom}) // seq 3
	e.Schedule(9, func() { t.Error("event after the panic ran") })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	cp, ok := got.(*CallbackPanic)
	if !ok {
		t.Fatalf("recovered %T (%v) from Run, want *CallbackPanic", got, got)
	}
	if cp.At != 7 || cp.Seq != 3 || cp.Callback != "*sim.boomCallback" || cp.Value != any(boom) {
		t.Fatalf("CallbackPanic = %+v, want at 7, seq 3, *sim.boomCallback, the original value", *cp)
	}
	if msg := cp.Error(); !strings.Contains(msg, "at=7, seq=3") || !strings.Contains(msg, "boom") {
		t.Fatalf("message %q does not name the event and the original panic", msg)
	}
	if e.Now() != 7 || e.current != nil || e.Live() != 1 || e.Pending() != 1 {
		t.Fatalf("after the panic: now %v, current %v, live %d, pending %d; want 7, nil, 1, 1",
			e.Now(), e.current, e.Live(), e.Pending())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", e.Live())
	}
	awaitGoroutines(t, before)
}
