// Package sim implements a deterministic discrete-event simulation engine.
//
// Every hardware actor in the reproduction (GPU streaming multiprocessors,
// CPU cores, SSD controllers, DMA engines, polling threads) runs as a
// simulation process on one shared virtual clock. Exactly one process is
// runnable at any instant, so a given seed always produces the same event
// trace, the same metrics, and the same data movement.
//
// Processes are coroutines: the engine switches into a process, the process
// runs until it blocks (Sleep, Wait, Acquire, ...) or returns, and control
// switches straight back to the engine — one direct hand-off each way on the
// caller's thread, no channel and no pass through the Go scheduler
// (coro.go). Virtual time only advances between events.
//
// The engine's hot path is allocation-free in steady state: every pending
// event is an (at, seq, Callback) triple in the engine's one event queue — a
// zero-delay ring, a calendar of 512 ns buckets threaded through a payload
// slab, and an overflow heap (events.go; DESIGN.md §6) — process resumes
// schedule the *Proc itself as the Callback, and finished process
// coroutines park on a free list for reuse by the next Go call.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration helpers. Virtual durations share the Time type so arithmetic
// stays free of conversions.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual instant.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// Engine owns the virtual clock and the pending-event queue.
// Engines are not safe for concurrent use from multiple OS threads; all
// interaction must come from the driving goroutine (before Run) or from
// within simulation processes and callbacks (during Run). Distinct engines
// are fully independent and may run on concurrent goroutines.
type Engine struct {
	now Time
	seq uint64
	// current is the process whose code is executing right now, nil while
	// the engine itself (or a plain callback) runs.
	current *Proc
	// live holds every started-but-unfinished process (order is
	// insertion order with swap-removal; Shutdown's kill order follows it).
	live []*Proc
	// free parks finished process coroutines for reuse by the next Go.
	free []*Proc

	// procPanic marks a panic on its way out of a process function, which
	// RunUntil passes on as it is (see CallbackPanic).
	procPanic bool

	// q holds every pending event; dispatch order is its (at, seq) minimum.
	q eventQueue
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// QueueStats reports the event-queue traffic counters accumulated so far.
func (e *Engine) QueueStats() QueueStats { return e.q.stats }

// funcCallback adapts a closure to Callback. Func values are pointer-shaped,
// so the conversion to the interface allocates nothing.
type funcCallback func()

func (f funcCallback) Run() { f() }

// Schedule runs fn at now+delay. A negative delay is treated as zero.
// Callbacks run on the engine goroutine and must not block.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleCallback(delay, funcCallback(fn))
}

// Callback is a pre-built scheduled action. Objects that run through many
// scheduled phases (an SSD command moving media → DMA → completion)
// implement it once and reschedule themselves, so the event queue carries a
// two-word interface instead of a freshly boxed closure per phase.
type Callback interface {
	Run()
}

// ScheduleCallback runs cb.Run at now+delay; a negative delay is treated as
// zero. Storing an interface whose dynamic type is a pointer allocates
// nothing, so this is the allocation-free way to schedule anything: state
// machines, timers, and process resumes (a *Proc's Run hands it control).
func (e *Engine) ScheduleCallback(delay Time, cb Callback) {
	e.seq++
	if delay <= 0 {
		e.q.pushNow(event{at: e.now, seq: e.seq, cb: cb})
		return
	}
	e.q.push(e.now+delay, e.seq, cb)
}

// Timer is a cancellable scheduled callback. A Cancel before the due time
// makes the engine discard the event without running it — and without
// advancing the virtual clock to its timestamp, so an engine whose only
// remaining events are dead timers quiesces at the time of its last real
// event. Recovery deadlines lean on this: most command timeouts are armed
// and then beaten by the completion, and the abandoned timer must not
// stretch the measured run.
type Timer struct {
	fn   func()
	dead bool
	// done marks the scheduled event consumed — fired, or discarded by the
	// dispatch loop after a Cancel. A done timer's queue slot is gone, so
	// Revive can no longer reclaim it.
	done bool
}

// Run implements Callback; it is invoked by the engine, not by users.
func (t *Timer) Run() {
	t.done = true
	if !t.dead {
		t.fn()
	}
}

// Cancel discards the timer. Safe to call more than once, and after firing.
func (t *Timer) Cancel() {
	t.dead = true
	t.fn = nil
}

// Revive re-arms a canceled timer whose event is still pending in the
// queue, restoring fn; it reports whether the pending event could be
// reclaimed. A revived timer fires at its original due time, so callers
// must be content with an early fire (and typically re-check their own
// deadline and re-arm from the callback). Deadline pollers lean on this to
// park and re-park without pushing a fresh far-horizon event per cycle: the
// one pending event flips between live and dead instead.
func (t *Timer) Revive(fn func()) bool {
	if t.done {
		return false
	}
	t.dead, t.fn = false, fn
	return true
}

// ScheduleTimer runs fn at now+delay unless the returned timer is canceled
// first. A negative delay is treated as zero.
func (e *Engine) ScheduleTimer(delay Time, fn func()) *Timer {
	t := &Timer{fn: fn}
	e.ScheduleCallback(delay, t)
	return t
}

// killSignal is the panic value used to unwind a process coroutine during
// Shutdown. It is recovered by the process loop and never escapes.
type killSignal struct{}

// Proc is a simulation process: a coroutine the engine switches into and
// out of, so that exactly one process runs at a time. Finished processes
// are recycled: a *Proc handle is only valid until its function returns.
//
// A panic in a process function surfaces in the caller of Engine.Run (or
// RunUntil) with its own value (a plain callback's as a *CallbackPanic): the
// process leaves the live set, its coroutine is gone, and the engine can
// still be Shutdown.
type Proc struct {
	e    *Engine
	name string
	// next switches into the coroutine until it yields or ends, yield
	// switches back out of it (false: the coroutine is being stopped), stop
	// ends it. All three come from newCoroutine.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	fn     func(p *Proc)
	killed bool
	// liveIdx is this process's index in e.live, -1 when not live.
	liveIdx int
}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Go starts fn as a new simulation process. The process begins executing at
// the current virtual time, after already-queued events at that time.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.name = name
	} else {
		p = &Proc{e: e, name: name}
		p.next, p.stop = newCoroutine(p.loop)
	}
	p.fn = fn
	e.addLive(p)
	e.ScheduleCallback(0, p)
	return p
}

// loop is the body of every process coroutine: run one process function per
// resume, then park on the engine's free list until Go hands this coroutine
// out again. A stop (Shutdown) while parked or blocked ends the loop instead.
func (p *Proc) loop(yield func(struct{}) bool) {
	e := p.e
	p.yield = yield
	for {
		p.invoke()
		if p.killed {
			return
		}
		p.fn = nil
		e.unlive(p)
		e.free = append(e.free, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// invoke runs the process function, absorbing the Shutdown unwind panic. Any
// other panic retires the process and carries on out of the coroutine, into
// whoever resumed it.
func (p *Proc) invoke() {
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(killSignal); kill && p.killed {
				return
			}
			p.e.unlive(p)
			p.e.procPanic = true
			panic(r)
		}
	}()
	p.fn(p)
}

func (e *Engine) addLive(p *Proc) {
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
}

func (e *Engine) unlive(p *Proc) {
	i := p.liveIdx
	if i < 0 {
		return
	}
	last := len(e.live) - 1
	e.live[i] = e.live[last]
	e.live[i].liveIdx = i
	e.live[last] = nil
	e.live = e.live[:last]
	p.liveIdx = -1
}

// Run implements Callback: it switches into p and returns when p blocks or
// finishes. The engine invokes it when a resume event scheduled for p comes
// due; it is not for users. If the process function panics, the panic
// continues here, with the engine back outside any process.
func (p *Proc) Run() {
	e := p.e
	prev := e.current
	e.current = p
	defer func() { e.current = prev }()
	p.next()
}

// block suspends the calling process until something resumes it.
// Must only be called from within that process.
func (p *Proc) block() {
	if p.killed {
		// Deferred cleanup running during a Shutdown unwind must not
		// re-enter the scheduler; keep unwinding instead.
		panic(killSignal{})
	}
	if !p.yield(struct{}{}) {
		// Shutdown is stopping the coroutine: unwind through the process
		// function's deferred cleanup.
		p.killed = true
		panic(killSignal{})
	}
}

// Sleep suspends the process for d of virtual time (d<=0 is a yield to
// events already queued at the current instant).
func (p *Proc) Sleep(d Time) {
	p.e.ScheduleCallback(d, p)
	p.block()
}

// SleepUntil suspends the process until virtual time t (or yields if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	d := t - p.e.now
	if d < 0 {
		d = 0
	}
	p.Sleep(d)
}

// Run processes events until none remain. It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil processes events with timestamps <= deadline. Events beyond the
// deadline remain queued; the clock is left at the last event dispatched.
// Dispatch order is the strict global (at, seq) minimum.
func (e *Engine) RunUntil(deadline Time) Time {
	q := &e.q
	var ev event
	defer e.annotatePanic(&ev)
	for {
		var ok bool
		if ev, ok = q.popMinUntil(deadline); !ok {
			break
		}
		if t, ok := ev.cb.(*Timer); ok && t.dead {
			// Canceled: discard without advancing the clock — or the
			// queue's floor, which must never pass it.
			t.done = true
			q.stats.DeadTimers++
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
			q.advance(ev.at)
		}
		q.stats.Dispatched++
		ev.cb.Run()
	}
	return e.now
}

// CallbackPanic is what Run and RunUntil panic with when a callback panics:
// the original value plus the event that was being dispatched, which a stack
// trace through a pooled state machine does not identify. A panic out of a
// process function is not wrapped; it reaches Run's caller as it is.
type CallbackPanic struct {
	At       Time   // the event's due time
	Seq      uint64 // its insertion sequence
	Callback string // dynamic type of the event's Callback
	Value    any    // what the callback panicked with
}

func (p *CallbackPanic) Error() string {
	return fmt.Sprintf("sim: %s panicked in the event (at=%d, seq=%d): %v", p.Callback, int64(p.At), p.Seq, p.Value)
}

// annotatePanic is RunUntil's deferred half. The event was already popped
// and a process switched into restores e.current on its way out, so the
// engine can still be Shutdown afterwards.
func (e *Engine) annotatePanic(ev *event) {
	r := recover()
	if r == nil {
		return
	}
	if e.procPanic {
		e.procPanic = false
		panic(r)
	}
	panic(&CallbackPanic{At: ev.at, Seq: ev.seq, Callback: fmt.Sprintf("%T", ev.cb), Value: r})
}

// Shutdown releases every process coroutine the engine still owns: processes
// started but never run, processes left blocked when the run reached
// quiescence (a controller waiting on a doorbell that will never ring) and
// finished processes parked on the free list. A blocked process is stopped
// where it waits and unwinds via panic/recover, running its deferred cleanup
// on the way out; pending events are then discarded.
//
// Call it after Run returns, never from inside a running simulation. The
// engine is spent afterwards: metrics and state remain readable, but no new
// processes or events should be added. Without Shutdown an abandoned engine
// leaks one coroutine (a parked goroutine) per blocked or parked process —
// harmless for a handful of engines, fatal for a harness that builds
// thousands.
func (e *Engine) Shutdown() {
	if e.current != nil {
		panic("sim: Shutdown called from inside a running simulation")
	}
	// Killed processes may spawn or finish others from deferred cleanup;
	// both loops re-check length every iteration to absorb that.
	for len(e.live) > 0 {
		e.kill(e.live[len(e.live)-1])
	}
	for len(e.free) > 0 {
		p := e.free[len(e.free)-1]
		e.free[len(e.free)-1] = nil
		e.free = e.free[:len(e.free)-1]
		e.kill(p)
	}
	e.q = eventQueue{stats: e.q.stats}
}

// kill stops p's coroutine — never started, blocked, or parked — and returns
// once it has unwound and exited.
func (e *Engine) kill(p *Proc) {
	p.stop()
	e.unlive(p)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }

// Live reports the number of started-but-unfinished processes.
func (e *Engine) Live() int { return len(e.live) }

// sigWaiter is one parked waiter on a Signal: a Callback (a *Proc for a
// blocked process) scheduled as one zero-delay event when the signal fires,
// in registration order — so swapping a process waiter for a state machine
// never perturbs the event trace — or run inline (see WaitInline).
type sigWaiter struct {
	cb     Callback
	inline bool
}

// Signal is a one-shot event: processes Wait on it (or callbacks register
// via WaitCallback), someone Fires it. After firing, Wait returns
// immediately. Fire is idempotent. A Signal is usable as a value field of
// the record it completes (Init it there); it must not be copied once
// waited on.
type Signal struct {
	e     *Engine
	name  string
	fired bool
	// first is the inline slot of the earliest registered waiter (cb nil when
	// nobody waits), so the one-waiter case never allocates; later waiters
	// spill into waiters, in registration order.
	first   sigWaiter
	waiters []sigWaiter
}

// NewSignal creates an unfired signal.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{e: e, name: name}
}

// Init readies an embedded signal — the zero value, or one recycled with
// its owner — unfired on e. Like Reset it panics while anything waits.
func (s *Signal) Init(e *Engine, name string) {
	s.e, s.name = e, name
	s.Reset()
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// wake delivers the fire to one waiter.
func (s *Signal) wake(w sigWaiter) {
	if w.inline {
		w.cb.Run()
	} else {
		s.e.ScheduleCallback(0, w.cb)
	}
}

// Fire wakes all waiters at the current virtual time. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first.cb == nil {
		return
	}
	// Take ownership of the waiters before running anything: an inline
	// waiter may Reset this signal and re-arm waiters mid-loop, and those
	// must land on a fresh slot and list, not overwrite entries still being
	// walked.
	first, ws := s.first, s.waiters
	s.first, s.waiters = sigWaiter{}, nil
	s.wake(first)
	for i := range ws {
		w := ws[i]
		ws[i] = sigWaiter{}
		s.wake(w)
	}
	if s.waiters == nil {
		// Keep the backing array: a signal that is re-armed with Reset and
		// waited on again reuses it instead of growing a fresh one.
		s.waiters = ws[:0]
	}
}

// Reset re-arms a fired signal so it can be waited on and fired again.
// It must not be called while processes are still waiting.
func (s *Signal) Reset() {
	if s.first.cb != nil {
		panic("sim: Reset on Signal with waiters: " + s.name)
	}
	s.fired = false
}

// park registers w behind the waiters already there.
func (s *Signal) park(w sigWaiter) {
	if s.first.cb == nil {
		s.first = w
		return
	}
	s.waiters = append(s.waiters, w) // Fire keeps the backing array; only a second concurrent waiter ever grows it
}

// Wait blocks the process until the signal fires (returns immediately if it
// already has).
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.park(sigWaiter{cb: p})
	p.block()
}

// WaitCallback registers cb to be scheduled when the signal fires. It is the
// callback-state-machine analogue of Wait: a poller that has drained its
// work parks here and is re-entered by a direct call instead of a goroutine
// rendezvous. If the signal has already fired the callback is scheduled
// immediately; pollers that must not consume an event in that case check
// Fired() first, exactly as process loops do before Wait.
//
// The first argument is ignored. It named a per-device event wheel before
// the engine had one queue, and stays only because the frozen benchmark
// module (bench/drives.go) calls WaitCallback(0, r).
func (s *Signal) WaitCallback(_ int, cb Callback) {
	if s.fired {
		s.e.ScheduleCallback(0, cb)
		return
	}
	s.park(sigWaiter{cb: cb})
}

// WaitInline registers cb to run synchronously inside Fire, at the firing
// instant, instead of through a scheduled event. It is for tiny relay
// callbacks on hot signals (a CQ-post forwarder, a doorbell nudge) where
// the event hop would double the cost of the edge: the callback runs in
// the firer's stack frame, so it must be reentrancy-safe and must not
// assume the firer has finished its own state update beyond the signal.
// If the signal has already fired, cb runs immediately.
func (s *Signal) WaitInline(cb Callback) {
	if s.fired {
		cb.Run()
		return
	}
	s.park(sigWaiter{cb: cb, inline: true})
}

// CancelWaitCallback removes a callback waiter registered with WaitCallback
// before the signal fires, reporting whether it was still registered. It is
// how a wait gets a deadline: a timer that beats the signal deregisters the
// poller and re-enters it directly; if the signal's Fire already consumed
// the waiter (an exact-instant tie), the cancel fails and the timer becomes
// a no-op instead of a double wake.
func (s *Signal) CancelWaitCallback(cb Callback) bool {
	if s.first.cb == cb && cb != nil {
		// The next waiter in line, if any, moves up into the inline slot.
		s.first = sigWaiter{}
		if len(s.waiters) > 0 {
			s.first = s.waiters[0]
			s.waiters = append(s.waiters[:0], s.waiters[1:]...)
		}
		return true
	}
	for i, w := range s.waiters {
		if w.cb == cb {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return false
}
