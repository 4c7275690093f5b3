package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the reference ordering the event queue must reproduce: the
// (at, then seq) comparator applied as a total order over a plain list.
type refQueue struct {
	evs []event
}

func (r *refQueue) push(ev event) { r.evs = append(r.evs, ev) }

// min reports the index of the earliest event; callers guarantee one exists.
func (r *refQueue) min() int {
	best := 0
	for i := 1; i < len(r.evs); i++ {
		e, b := r.evs[i], r.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refQueue) popMin() event {
	best := r.min()
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return ev
}

// nopCallback is the payload of queue-level test events.
type nopCallback struct{}

func (nopCallback) Run() {}

// queueDriver plays the engine's part against a bare eventQueue and checks
// every operation against the reference: it owns the clock and the sequence
// counter, routes pushes to the lane the engine would, and slides the
// queue's floor only when the clock moves.
type queueDriver struct {
	t   *testing.T
	q   eventQueue
	ref refQueue
	seq uint64
	now Time
}

func (d *queueDriver) push(at Time) uint64 {
	if at < d.now {
		at = d.now
	}
	d.seq++
	if at == d.now {
		d.q.pushNow(event{at: at, seq: d.seq, cb: nopCallback{}})
	} else {
		d.q.push(at, d.seq, nopCallback{})
	}
	d.ref.push(event{at: at, seq: d.seq})
	d.checkLen()
	return d.seq
}

// popUntil pops the earliest event if it is due by deadline, as
// Engine.RunUntil does, and reports whether one was.
func (d *queueDriver) popUntil(deadline Time) (event, bool) {
	d.t.Helper()
	got, ok := d.q.popMinUntil(deadline)
	wantOK := len(d.ref.evs) > 0 && d.ref.evs[d.ref.min()].at <= deadline
	if ok != wantOK {
		d.t.Fatalf("popMinUntil(%d) ok=%v, reference says %v", deadline, ok, wantOK)
	}
	if !ok {
		return got, false
	}
	want := d.ref.popMin()
	if got.at != want.at || got.seq != want.seq {
		d.t.Fatalf("pop mismatch: queue (at=%d seq=%d), reference (at=%d seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	if got.at < d.now {
		d.t.Fatalf("clock rewind: popped at=%d with the clock at %d", got.at, d.now)
	}
	d.checkLen()
	return got, true
}

// dispatch moves the clock (and the queue's floor) to a popped event, which
// the engine does for everything but a dead timer.
func (d *queueDriver) dispatch(ev event) {
	if ev.at > d.now {
		d.now = ev.at
		d.q.advance(ev.at)
	}
}

func (d *queueDriver) pop() event {
	d.t.Helper()
	ev, ok := d.popUntil(MaxTime)
	if !ok {
		d.t.Fatal("pop from an empty queue")
	}
	d.dispatch(ev)
	return ev
}

func (d *queueDriver) checkLen() {
	d.t.Helper()
	if d.q.len() != len(d.ref.evs) {
		d.t.Fatalf("queue reports %d pending events, reference holds %d", d.q.len(), len(d.ref.evs))
	}
}

// driveDifferential pushes the schedule into both queues, interleaving pops
// so the floor advances (exercising bucket activation, window sliding and
// overflow promotion), and checks every pop agrees with the reference.
func driveDifferential(t *testing.T, schedule []Time) {
	t.Helper()
	d := &queueDriver{t: t}
	for i, at := range schedule {
		d.push(at)
		// Interleave pops: drain most of the backlog every few pushes so
		// the window slides through the schedule instead of sorting it in
		// one shot.
		if i%3 == 2 {
			for d.q.len() > 2 {
				d.pop()
			}
		}
	}
	for d.q.len() > 0 {
		d.pop()
	}
}

func TestWheelDifferentialExactTies(t *testing.T) {
	// Clusters of events at identical timestamps: only seq may decide.
	var schedule []Time
	base := Time(0)
	for c := 0; c < 200; c++ {
		base += Time(c%7) * 777 * Nanosecond
		for k := 0; k < 5; k++ {
			schedule = append(schedule, base)
		}
	}
	driveDifferential(t, schedule)
}

func TestWheelDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var schedule []Time
	base := Time(0)
	for i := 0; i < 5000; i++ {
		// Mix of zero-delay, near-horizon, and far-overflow offsets,
		// including exact repeats for tie coverage.
		var d Time
		switch rng.Intn(10) {
		case 0:
			d = 0
		case 1, 2, 3, 4, 5:
			d = Time(rng.Int63n(int64(100 * Microsecond)))
		case 6, 7, 8:
			d = Time(rng.Int63n(int64(2 * Millisecond)))
		default:
			d = Time(rng.Int63n(int64(50 * Millisecond)))
		}
		schedule = append(schedule, base+d)
		if rng.Intn(4) == 0 {
			base += Time(rng.Int63n(int64(20 * Microsecond)))
		}
	}
	driveDifferential(t, schedule)
}

// calSpan is the calendar horizon: the first instant past a window that
// starts at time zero.
const calSpan = Time(calBuckets) << calWidthBits

// TestWheelHorizonBoundary pins the calendar↔overflow split: events
// scheduled exactly at, just below, and beyond the horizon must file into the
// expected lane and still pop in exact (at, seq) order after promotion.
func TestWheelHorizonBoundary(t *testing.T) {
	d := &queueDriver{t: t}
	// Floor at bucket 0: horizon covers [0, calSpan).
	d.push(calSpan - 1)    // last calendar-addressable instant
	d.push(calSpan)        // first overflow instant
	d.push(calSpan + 1)    //
	d.push(2*calSpan + 17) // deep overflow
	d.push(1)              // first bucket
	if st := d.q.stats; st.WheelPushes != 2 || st.OverflowPushes != 3 || len(d.q.heap) != 3 {
		t.Fatalf("calendar took %d pushes and overflow %d (%d keys in the heap), want 2 and 3 (3)",
			st.WheelPushes, st.OverflowPushes, len(d.q.heap))
	}

	// Popping the first-bucket event advances the floor by 0 buckets;
	// popping calSpan-1 slides the window to the last bucket and promotes
	// the overflow events now inside [calSpan-1's bucket, +calSpan).
	if got := d.pop(); got.at != 1 {
		t.Fatalf("first pop at=%d, want 1", got.at)
	}
	if got := d.pop(); got.at != calSpan-1 {
		t.Fatalf("second pop at=%d, want %d", got.at, calSpan-1)
	}
	if d.q.stats.Promotions != 2 || len(d.q.heap) != 1 {
		t.Fatalf("after sliding past calSpan-1: %d promotions, %d keys left in the heap, want 2 and 1",
			d.q.stats.Promotions, len(d.q.heap))
	}
	for _, want := range []Time{calSpan, calSpan + 1, 2*calSpan + 17} {
		if got := d.pop(); got.at != want {
			t.Fatalf("pop at=%d, want %d", got.at, want)
		}
	}
	d.checkLen()
}

// TestWheelPromotionPreservesTies schedules ties that straddle a promotion:
// identical timestamps land in the overflow heap and the calendar through
// different routes, and must still dispatch in seq order.
func TestWheelPromotionPreservesTies(t *testing.T) {
	d := &queueDriver{t: t}
	tieAt := calSpan + 5000
	first := d.push(tieAt)  // overflow (beyond horizon at floor 0)
	d.push(1)               // calendar; popping it keeps floor near 0
	d.pop()                 // floor → bucket 0, no promotion
	d.push(calSpan - 1)     // calendar
	d.pop()                 // floor → last bucket: tieAt promotes into the ring
	second := d.push(tieAt) // lands directly in the calendar
	got1 := d.pop()
	got2 := d.pop()
	if got1.at != tieAt || got1.seq != first {
		t.Fatalf("first tie pop (at=%d seq=%d), want (at=%d seq=%d)", got1.at, got1.seq, tieAt, first)
	}
	if got2.at != tieAt || got2.seq != second {
		t.Fatalf("second tie pop (at=%d seq=%d), want (at=%d seq=%d)", got2.at, got2.seq, tieAt, second)
	}
}

// TestPeekThenEarlierPush covers the run being gathered ahead of the clock:
// a bounded pop activates a bucket past the deadline, then a push lands in
// an earlier bucket and must still pop first.
func TestPeekThenEarlierPush(t *testing.T) {
	d := &queueDriver{t: t}
	late := 40 * Microsecond
	d.push(late)
	d.push(late + 3)
	if _, ok := d.popUntil(10 * Microsecond); ok {
		t.Fatal("bounded pop returned an event past its deadline")
	}
	if !d.q.runOn {
		t.Fatal("bounded pop did not gather the earliest bucket; the hand-back path is not exercised")
	}
	d.push(5 * Microsecond) // before the run's bucket: the run is handed back
	d.push(late + 1)        // the run's old bucket again
	for _, want := range []Time{5 * Microsecond, late, late + 1, late + 3} {
		if got := d.pop(); got.at != want {
			t.Fatalf("pop at=%d, want %d", got.at, want)
		}
	}
}

// TestNowLaneWinsWithoutActivation pins the dominant polling pattern: while
// zero-delay events are pending and the earliest occupied bucket lies after
// the clock's, pops come off the ring and no bucket is gathered.
func TestNowLaneWinsWithoutActivation(t *testing.T) {
	d := &queueDriver{t: t}
	d.push(20 * Microsecond)
	d.push(0)
	d.push(0)
	d.pop()
	d.pop()
	if d.q.stats.Activations != 0 {
		t.Fatalf("%d buckets gathered while the now lane led, want 0", d.q.stats.Activations)
	}
	d.pop()
	if d.q.stats.Activations != 1 {
		t.Fatalf("%d buckets gathered after draining, want 1", d.q.stats.Activations)
	}
}

// TestDeadTimerDoesNotMisorderLaterPushes is the regression test for the
// floor running ahead of the clock: discarding a canceled timer used to
// slide the window to the timer's due time, so a later push timed before it
// was filed behind the window and dispatched out of order, at the wrong
// instant.
func TestDeadTimerDoesNotMisorderLaterPushes(t *testing.T) {
	e := New()
	defer e.Shutdown()
	tm := e.ScheduleTimer(10*Millisecond, func() { t.Error("canceled timer fired") })
	tm.Cancel()
	if end := e.Run(); end != 0 {
		t.Fatalf("discarding a dead timer moved the clock to %v", end)
	}
	type fire struct {
		name string
		at   Time
	}
	var fired []fire
	e.Schedule(5*Microsecond, func() { fired = append(fired, fire{"A", e.Now()}) })
	e.Schedule(1*Millisecond, func() { fired = append(fired, fire{"B", e.Now()}) })
	e.Run()
	want := []fire{{"A", 5 * Microsecond}, {"B", 1 * Millisecond}}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if st := e.QueueStats(); st.DeadTimers != 1 || st.Dispatched != 2 {
		t.Fatalf("QueueStats = %+v, want 1 dead timer and 2 dispatched", st)
	}
}

// TestWheelEngineOrderMatchesSchedule runs ordering through the full engine
// to cover the now lane and the clock-driven floor on top of the calendar.
func TestWheelEngineOrderMatchesSchedule(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	type stamp struct {
		at  Time
		ord int
	}
	var fired []stamp
	var delays []Time
	for i := 0; i < 400; i++ {
		delays = append(delays, Time(rng.Int63n(int64(3*Millisecond))))
	}
	for i, d := range delays {
		i, d := i, d
		e.Schedule(d, func() {
			if e.Now() != d {
				t.Errorf("callback %d ran at %v, scheduled for %v", i, e.Now(), d)
			}
			fired = append(fired, stamp{at: e.Now(), ord: i})
		})
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d callbacks", len(fired), len(delays))
	}
	if !sort.SliceIsSorted(fired, func(a, b int) bool {
		if fired[a].at != fired[b].at {
			return fired[a].at < fired[b].at
		}
		return fired[a].ord < fired[b].ord
	}) {
		t.Fatal("engine dispatched events out of (at, seq) order")
	}
	e.Shutdown()
}

// TestWheelDispatchAllocsCeiling pins the steady-state dispatch cost at
// zero allocations: once slab, run, now ring and heap reach their high-water
// marks, nothing the engine schedules — a closure, a Callback, a timer
// revive, a process resume, near or far — may allocate.
func TestWheelDispatchAllocsCeiling(t *testing.T) {
	e := New()
	defer e.Shutdown()
	fn := func() {}
	var cb nopCallback
	tm := e.ScheduleTimer(1000*Second, fn)
	sleeper := func(p *Proc) {
		for k := 0; k < 10; k++ {
			p.Sleep(Time(k) * 100 * Nanosecond)
		}
	}
	cycle := func() {
		for k := 0; k < 50; k++ {
			e.Schedule(Time(k%13)*Microsecond, fn)            // now lane and calendar
			e.ScheduleCallback(Time(k%7)*100*Nanosecond, &cb) // same-bucket run inserts
			e.Schedule(2*Millisecond+Time(k)*Microsecond, fn) // overflow heap, promoted later
			tm.Cancel()
			if !tm.Revive(fn) {
				t.Fatal("pending timer could not be revived")
			}
		}
		e.Go("sleeper", sleeper)
		e.RunUntil(e.Now() + 10*Millisecond)
	}
	cycle() // warm up capacities and the process goroutine
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.2f times per cycle, want 0", allocs)
	}
	if st := e.QueueStats(); st.NowPushes == 0 || st.RunInserts == 0 || st.Promotions == 0 {
		t.Fatalf("cycle missed a lane: %+v", st)
	}
}

// Fuzz opcodes: each op is three bytes, an opcode and a 16-bit operand.
const (
	fzNow       = iota // schedule at the current instant
	fzSubBucket        // 1–511 ns ahead: the clock's bucket or the next
	fzHorizon          // anywhere inside the calendar window
	fzBoundary         // the last instant inside the window, the first past it, or one more
	fzFar              // past the horizon, into the overflow heap
	fzTie              // the exact timestamp of the previous push
	fzStep             // run the earliest pending instant; its first event pushes a same-instant one
	fzRunUntil         // bounded run, inside the window
	fzTimer            // ScheduleTimer, delay class from the operand
	fzCancel           // Timer.Cancel
	fzRevive           // Timer.Revive
	fzRunFar           // bounded run past the horizon
	fzOps
)

// fuzzOps encodes (opcode, operand) pairs for the seed corpus.
func fuzzOps(ops ...int) []byte {
	var b []byte
	for i := 0; i+1 < len(ops); i += 2 {
		b = append(b, byte(ops[i]), byte(ops[i+1]>>8), byte(ops[i+1]))
	}
	return b
}

// FuzzEventQueue drives an engine through arbitrary interleavings of
// pushes in every delay class, pushes from inside a dispatching event, bounded
// runs followed by earlier pushes, and timer schedule/cancel/revive, and
// checks it against a
// reference list: events fire in exact (at, seq) order at their own
// timestamps, canceled timers are discarded exactly when they reach the head
// without moving the clock, Pending matches, and the clock never rewinds.
func FuzzEventQueue(f *testing.F) {
	// Horizon boundary: just inside, exactly at, just past; then drain.
	f.Add(fuzzOps(fzBoundary, 0, fzBoundary, 1, fzBoundary, 2, fzSubBucket, 7, fzStep, 0, fzRunFar, 0xffff))
	// Peek, then an earlier push: a bounded run gathers a bucket past its
	// deadline, then pushes land before and inside it.
	f.Add(fuzzOps(fzHorizon, 2500, fzHorizon, 2501, fzRunUntil, 600, fzHorizon, 300, fzHorizon, 2500, fzStep, 0, fzStep, 0, fzRunFar, 0))
	// Dead timer at the head, then pushes timed before it.
	f.Add(fuzzOps(fzTimer, 2|9000<<2, fzCancel, 0, fzRunFar, 0xffff, fzHorizon, 312, fzHorizon, 62500, fzRunFar, 0xffff))
	// Revive after cancel, revive after discard, ties across lanes.
	f.Add(fuzzOps(fzTimer, 1|40<<2, fzCancel, 0, fzRevive, 0, fzFar, 3, fzTie, 0, fzNow, 0, fzTie, 0, fzRunFar, 0xffff, fzRevive, 0))
	// A tie between the run and the now lane: seq decides, not the lane.
	f.Add(fuzzOps(fzSubBucket, 100, fzTie, 0, fzStep, 0, fzNow, 0, fzStep, 0, fzStep, 0))
	f.Add(fuzzOps(fzFar, 100, fzTie, 0, fzHorizon, 65535, fzStep, 0, fzTie, 0, fzBoundary, 1, fzStep, 0, fzStep, 0, fzStep, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		defer e.Shutdown()

		// The reference list holds every pending event under the sequence
		// number the engine gave it (one per schedule call), a timer's event
		// carrying the *Timer; fired is the log the engine's callbacks
		// append to (seq, and e.Now() when run), compared after every run.
		var ref refQueue
		var fired []event
		var timers []*Timer
		var seq uint64
		spawn := false // the next event to fire pushes a zero-delay one from inside its callback
		var lastAt Time

		var schedule func(delay Time, timer bool)
		record := func(seq uint64) func() {
			return func() {
				fired = append(fired, event{at: e.Now(), seq: seq})
				if spawn {
					spawn = false
					schedule(0, false)
				}
			}
		}
		schedule = func(delay Time, timer bool) {
			if delay < 0 {
				delay = 0
			}
			seq++
			lastAt = e.Now() + delay
			ev := event{at: lastAt, seq: seq}
			if timer {
				tm := e.ScheduleTimer(delay, record(seq))
				timers = append(timers, tm)
				ev.cb = tm
			} else {
				e.Schedule(delay, record(seq))
			}
			ref.push(ev)
		}
		// run drives the engine up to the deadline, then replays the
		// reference: pop the (at, seq) minimum while it is due, discarding
		// dead timers, and compare.
		run := func(deadline Time) {
			t.Helper()
			clock := e.Now()
			e.RunUntil(deadline)
			n := 0
			for len(ref.evs) > 0 && ref.evs[ref.min()].at <= deadline {
				m := ref.popMin()
				if tm, ok := m.cb.(*Timer); ok && tm.dead {
					if !tm.done {
						t.Fatalf("dead timer %d at the head was not discarded", m.seq)
					}
					continue
				}
				if n >= len(fired) {
					t.Fatalf("event %d (at=%d) was due but did not fire; %d fired", m.seq, m.at, len(fired))
				}
				if got := fired[n]; got.seq != m.seq || got.at != m.at {
					t.Fatalf("fire %d: engine ran event %d at %d, reference wants event %d at %d",
						n, got.seq, got.at, m.seq, m.at)
				}
				if m.at < clock {
					t.Fatalf("clock rewind: event %d at %d after %d", m.seq, m.at, clock)
				}
				clock = m.at
				n++
			}
			if n != len(fired) {
				t.Fatalf("engine fired %d events, reference expected %d", len(fired), n)
			}
			if e.Pending() != len(ref.evs) {
				t.Fatalf("Pending() = %d, reference holds %d", e.Pending(), len(ref.evs))
			}
			if e.Now() != clock {
				t.Fatalf("clock at %d after a run whose last event was at %d", e.Now(), clock)
			}
			fired = fired[:0]
		}

		for ; len(data) >= 3; data = data[3:] {
			v := int(data[1])<<8 | int(data[2])
			horizon := Time(e.q.wbase+calBuckets) << calWidthBits // first instant past the window
			switch data[0] % fzOps {
			case fzNow:
				schedule(0, false)
			case fzSubBucket:
				schedule(Time(1+v%511), false)
			case fzHorizon:
				schedule(Time(v)*16, false)
			case fzBoundary:
				schedule(horizon-1+Time(v%3)-e.Now(), false)
			case fzFar:
				schedule(calSpan+Time(v)*Microsecond, false)
			case fzTie:
				schedule(lastAt-e.Now(), false)
			case fzTimer:
				m := Time(v >> 2)
				schedule([]Time{1 + m%511, m * 64, calSpan + m*Microsecond, horizon - e.Now() - 1 + m%3}[v&3], true)
			case fzCancel:
				if len(timers) > 0 {
					timers[v%len(timers)].Cancel()
				}
			case fzRevive:
				if len(timers) > 0 {
					tm := timers[v%len(timers)]
					var queued uint64 // the timer's seq while its event is pending
					for _, p := range ref.evs {
						if p.cb == Callback(tm) {
							queued = p.seq
						}
					}
					// Revivable exactly while its event is still queued.
					if got := tm.Revive(record(queued)); got != (queued != 0) {
						t.Fatalf("Revive = %v with the timer's event queued = %v", got, queued != 0)
					}
				}
			case fzStep:
				if len(ref.evs) > 0 {
					spawn = true
					run(ref.evs[ref.min()].at)
					spawn = false
				}
			case fzRunUntil:
				run(e.Now() + Time(v)*16)
			case fzRunFar:
				run(e.Now() + calSpan + Time(v)*Microsecond)
			}
		}
		run(MaxTime)
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after a full run", e.Pending())
		}
	})
}
