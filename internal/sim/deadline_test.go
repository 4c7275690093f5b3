package sim

import "testing"

// waitOwner is a DeadlineWait owner: it records when it is re-entered and
// serves a deadline the test moves by hand.
type waitOwner struct {
	e     *Engine
	w     DeadlineWait
	sig   *Signal
	next  Time
	runs  []Time
	onRun func()
}

func newWaitOwner() *waitOwner {
	e := New()
	o := &waitOwner{e: e, sig: e.NewSignal("post")}
	o.w.Init(e, o)
	return o
}

func (o *waitOwner) Run() {
	o.runs = append(o.runs, o.e.Now())
	if o.onRun != nil {
		o.onRun()
	}
}

func (o *waitOwner) NextDeadline() Time { return o.next }

// park re-arms the signal and parks on it until the owner's deadline.
func (o *waitOwner) park() {
	o.sig.Reset()
	o.w.Park(o.sig, o.next)
}

func (o *waitOwner) wantRuns(t *testing.T, want ...Time) {
	t.Helper()
	if len(o.runs) != len(want) {
		t.Fatalf("owner ran at %v, want %v", o.runs, want)
	}
	for i := range want {
		if o.runs[i] != want[i] {
			t.Fatalf("owner ran at %v, want %v", o.runs, want)
		}
	}
}

// TestDeadlineWaitEarlyFireReaims: the command the timer was aimed at
// completed and the next deadline is later, so the fire re-aims the timer
// and the owner stays parked until the new deadline.
func TestDeadlineWaitEarlyFireReaims(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.park()
	o.e.Schedule(50, func() { o.next = 300 })
	o.e.RunUntil(200)
	o.wantRuns(t)
	o.e.Run()
	o.wantRuns(t, 300)
}

// TestDeadlineWaitDueFireReentersOnce: a due deadline cancels the wait and
// re-enters the owner directly, once; a later fire finds no waiter.
func TestDeadlineWaitDueFireReentersOnce(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.park()
	o.e.Schedule(200, o.sig.Fire)
	o.e.Run()
	o.wantRuns(t, 100)
}

// TestDeadlineWaitSignalWinsTie: a Fire at the deadline's instant, queued
// before the timer, takes the waiter first; the due timer does nothing and
// the owner runs once, through the fire's event.
func TestDeadlineWaitSignalWinsTie(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.e.Schedule(100, o.sig.Fire)
	o.park()
	before := o.e.QueueStats().Dispatched
	o.e.Run()
	o.wantRuns(t, 100)
	// The fire, the timer and the fire's wake: no direct re-entry on top.
	if got := o.e.QueueStats().Dispatched - before; got != 3 {
		t.Fatalf("%d events dispatched, want 3", got)
	}
}

// TestDeadlineWaitUnboundedParkKillsTimer: parking with no deadline marks
// the pending timer dead, so the engine quiesces at the last real event
// and counts the discarded timer.
func TestDeadlineWaitUnboundedParkKillsTimer(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.park()
	o.onRun = func() {
		o.next = 0
		o.park()
	}
	o.e.Schedule(10, o.sig.Fire)
	if end := o.e.Run(); end != 10 {
		t.Fatalf("engine quiesced at %v, want 10", end)
	}
	o.wantRuns(t, 10)
	if got := o.e.QueueStats().DeadTimers; got != 1 {
		t.Fatalf("DeadTimers = %d, want 1", got)
	}
}

// TestDeadlineWaitReparkRevives: a bounded park after an unbounded one
// revives the still-pending timer event instead of pushing a new one.
func TestDeadlineWaitReparkRevives(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.park()
	var pushes uint64
	o.onRun = func() {
		switch len(o.runs) {
		case 1: // t=10: nothing in flight
			o.next = 0
			o.park()
		case 2: // t=20: a command armed again
			o.next = 100
			before := o.e.QueueStats().Pushes()
			o.park()
			pushes = o.e.QueueStats().Pushes() - before
		}
	}
	o.e.Schedule(10, o.sig.Fire)
	o.e.Schedule(20, o.sig.Fire)
	o.e.Run()
	if pushes != 0 {
		t.Fatalf("re-park pushed %d events, want 0 (revive the pending one)", pushes)
	}
	o.wantRuns(t, 10, 20, 100)
	if got := o.e.QueueStats().DeadTimers; got != 0 {
		t.Fatalf("DeadTimers = %d, want 0", got)
	}
}

// TestDeadlineWaitStaleFireIsNoop: a timer that fires while its owner is
// not parked (woken earlier and still busy) does nothing.
func TestDeadlineWaitStaleFireIsNoop(t *testing.T) {
	o := newWaitOwner()
	o.next = 100
	o.park()
	o.e.Schedule(10, o.sig.Fire)
	o.e.Run()
	o.wantRuns(t, 10)
}

// TestDeadlineWaitEarlierDeadlineReplacesTimer: a park bounded by a
// deadline earlier than the pending timer's kills that timer and arms one
// at the earlier deadline.
func TestDeadlineWaitEarlierDeadlineReplacesTimer(t *testing.T) {
	o := newWaitOwner()
	o.next = 300
	o.park()
	o.onRun = func() {
		if len(o.runs) == 1 {
			o.next = 100
			o.park()
		}
	}
	o.e.Schedule(10, o.sig.Fire)
	o.e.Run()
	o.wantRuns(t, 10, 100)
	if got := o.e.QueueStats().DeadTimers; got != 1 {
		t.Fatalf("DeadTimers = %d, want 1 (the timer aimed at 300)", got)
	}
}
