package sim

// Deadliner is the owner of a DeadlineWait: the callback a wake re-enters,
// and the earliest deadline it must be re-entered by (0 when none).
type Deadliner interface {
	Callback
	NextDeadline() Time
}

// DeadlineWait parks its owner on a signal until the signal fires or the
// owner's next deadline passes, whichever comes first. A driver poller
// that has drained its completion queue waits this way: without the bound,
// a poller holding only a dropped command (no CQE will ever post) would
// sleep forever and wedge the engine.
//
// The wait keeps one pending timer across parks; a cancel and re-arm per
// park would push one far-horizon event per wake. A park replaces it only
// for an earlier deadline, or once its event is gone (fired, or discarded
// dead). While the owner stays parked its deadline
// can only move later (whatever arms a new one wakes the owner), so the
// timer may fire early but never late. When it fires early, aimed at a
// deadline whose command has since completed, it re-aims at the current
// deadline and the owner stays parked. Parking with no deadline marks the
// timer dead, so it never stretches quiescence, and the next bounded park
// revives the still-pending event in place.
//
// The wait is its own signal waiter. A Fire re-enters the owner through
// Run. A due deadline cancels the wait and re-enters the owner with a
// direct call, no event. A Fire at the same instant as the due timer wins:
// it already took the waiter, so the cancel fails and the timer does
// nothing. So does a timer that fires while the owner is not parked.
type DeadlineWait struct {
	e      *Engine
	owner  Deadliner
	sig    *Signal // the signal parked on; nil while the owner runs
	timer  *Timer
	aim    Time   // the pending timer's fire time
	expire func() // onTimer bound once, so arming never allocates
}

// Init binds the wait to its owner.
func (w *DeadlineWait) Init(e *Engine, owner Deadliner) {
	w.e, w.owner = e, owner
	w.expire = w.onTimer
}

// Park registers the owner on sig, which has not fired, bounded by next:
// a deadline after now, or 0 for no bound.
func (w *DeadlineWait) Park(sig *Signal, next Time) {
	w.sig = sig
	sig.WaitCallback(0, w)
	if w.timer != nil && (next == 0 || w.aim > next) {
		w.timer.Cancel()
	}
	if next > 0 && (w.timer == nil || w.aim > next || !w.timer.Revive(w.expire)) {
		w.arm(next)
	}
}

func (w *DeadlineWait) arm(at Time) {
	w.timer = w.e.ScheduleTimer(at-w.e.now, w.expire)
	w.aim = at
}

// Run re-enters the owner; it is invoked by the signal or the due timer,
// not by users.
func (w *DeadlineWait) Run() {
	w.sig = nil
	w.owner.Run()
}

// onTimer is the pending timer's body.
func (w *DeadlineWait) onTimer() {
	w.timer = nil
	if w.sig == nil {
		return
	}
	next := w.owner.NextDeadline()
	switch {
	case next == 0: // nothing armed any more: the signal alone ends the wait
	case next > w.e.now:
		w.arm(next)
	case w.sig.CancelWaitCallback(w):
		w.Run()
	}
}
