//go:build go1.23

package sim

import "iter"

// newCoroutine creates a coroutine around body and returns the two handles
// its owner drives it with. next switches into the coroutine and returns when
// body calls yield (true) or returns (false); stop makes a pending or future
// yield return false and waits for body to return, or, if body never started,
// discards it unrun. A panic in body surfaces from the next or stop call that
// was running it. The switch is direct — the caller's thread carries on in
// the coroutine — which is what makes a process resume cost a fraction of a
// channel rendezvous.
//
// iter entered the standard library in Go 1.23; go.mod stays at 1.22 because
// the frozen benchmark module requires this one at that version, so the
// import lives behind the build constraint above. There is no fallback file:
// Go 1.23 is the toolchain floor.
func newCoroutine(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
