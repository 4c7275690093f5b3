package harness

import (
	"fmt"
	"sync"
	"time"
)

// Progress reports one completed experiment to a RunAll observer.
type Progress struct {
	// Index is the experiment's position in the input slice (and in the
	// returned results), not its completion rank.
	Index  int
	Result *Result
	// Wall is host wall-clock time the experiment took. It is host-side
	// progress reporting only and must never be rendered into
	// deterministic output.
	Wall time.Duration
	// Completed counts experiments finished so far, including this one.
	Completed int
}

// RunAll runs the given experiments with up to parallel concurrent workers
// and returns their results in input order, regardless of completion order.
//
// Correctness rests on two properties: every experiment builds its own
// engines (simulation state is never shared between experiments), and each
// Run call gets a private accounting record via the registry wrapper. So
// with any worker count the rendered output of each experiment — and
// therefore of the whole ordered result slice — is byte-identical to a
// serial run; only host wall-clock changes. Worker goroutines pull the next
// experiment off a shared index, so long experiments do not convoy short
// ones.
//
// progress, if non-nil, is invoked once per completed experiment; calls are
// serialized but arrive in completion order.
//
// An experiment that panics — an integrity check tripping, a transfer lost on
// a backend with no retry path — does not take the process down mid-unwind:
// its result stays nil, progress is not called for it, the other experiments
// finish, and RunAll reports the first failure in input order as "<id>: <panic
// value>".
func RunAll(exps []Experiment, cfg RunConfig, parallel int, progress func(Progress)) ([]*Result, error) {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(exps) {
		parallel = len(exps)
	}
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	var (
		mu        sync.Mutex
		next      int
		completed int
		wg        sync.WaitGroup
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(exps) {
					return
				}
				start := time.Now()
				var r *Result
				err := Recovered(func() { r = exps[i].Run(cfg) })
				if err != nil {
					err = fmt.Errorf("%s: %w", exps[i].ID, err)
				}
				wall := time.Since(start)
				mu.Lock()
				results[i], errs[i] = r, err
				completed++
				done := completed
				if progress != nil && err == nil {
					progress(Progress{Index: i, Result: r, Wall: wall, Completed: done})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Recovered runs f and returns what it panicked with as an error, nil if it
// returned: a run that stops on a lost transfer or a failed integrity check
// is reported as one line, not a stack trace.
func Recovered(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	f()
	return nil
}
