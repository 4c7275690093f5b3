package harness

import (
	"runtime"
	"testing"
	"time"
)

// testSubset is a cheap cross-section of the registry for runner tests:
// enough distinct experiments to exercise real work-stealing interleavings
// under -parallel 8 without paying for the whole suite under -race.
func testSubset(t *testing.T) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range []string{"fig2", "fig3", "fig11", "fig13"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// render flattens results the way cambench writes them to stdout, so the
// comparison below is exactly the byte-identity the CLI promises.
func render(results []*Result) string {
	var out string
	for _, r := range results {
		out += r.String()
		out += "(" + r.SimElapsed.String() + ")\n"
	}
	return out
}

// mustRunAll is RunAll at quick scale for experiments that must all succeed.
func mustRunAll(t *testing.T, exps []Experiment, parallel int, progress func(Progress)) []*Result {
	t.Helper()
	results, err := RunAll(exps, RunConfig{Quick: true}, parallel, progress)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRunAllRecoversPanic: an experiment that panics becomes RunAll's error,
// named by its id; its neighbours still finish and progress skips it.
func TestRunAllRecoversPanic(t *testing.T) {
	good, _ := Get("tab1")
	boom := Experiment{ID: "boom", Run: func(RunConfig) *Result { panic("lost a block") }}
	reported := 0
	results, err := RunAll([]Experiment{good, boom, good}, RunConfig{Quick: true}, 2, func(Progress) { reported++ })
	if err == nil || err.Error() != "boom: lost a block" {
		t.Fatalf("err = %v, want the panic named by its experiment", err)
	}
	if results[0] == nil || results[1] != nil || results[2] == nil || reported != 2 {
		t.Fatalf("results %v with %d progress calls; want only the failed slot empty and unreported", results, reported)
	}
}

// TestRunAllParallelDeterminism is the runner half of the determinism gate:
// the same experiments run through RunAll with 8 workers must produce
// byte-identical rendered output — and identical per-experiment virtual
// time — to a serial run. This is what licenses `cambench -exp all
// -parallel N` to any N.
func TestRunAllParallelDeterminism(t *testing.T) {
	exps := testSubset(t)

	serial := mustRunAll(t, exps, 1, nil)
	parallel := mustRunAll(t, exps, 8, nil)

	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("result counts = %d serial, %d parallel, want %d",
			len(serial), len(parallel), len(exps))
	}
	for i := range exps {
		if serial[i].ID != exps[i].ID || parallel[i].ID != exps[i].ID {
			t.Fatalf("result %d out of input order: serial %s, parallel %s, want %s",
				i, serial[i].ID, parallel[i].ID, exps[i].ID)
		}
	}
	if a, b := render(serial), render(parallel); a != b {
		t.Errorf("parallel run rendered different output than serial:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// TestRunAllProgress checks the observer contract: one callback per
// experiment, serialized, with a monotonically increasing completion count.
func TestRunAllProgress(t *testing.T) {
	exps := testSubset(t)
	var seen []Progress
	mustRunAll(t, exps, 4, func(p Progress) {
		seen = append(seen, p)
	})
	if len(seen) != len(exps) {
		t.Fatalf("progress callbacks = %d, want %d", len(seen), len(exps))
	}
	indexSeen := map[int]bool{}
	for i, p := range seen {
		if p.Completed != i+1 {
			t.Errorf("callback %d reported Completed=%d, want %d", i, p.Completed, i+1)
		}
		if p.Index < 0 || p.Index >= len(exps) || indexSeen[p.Index] {
			t.Errorf("callback %d reported bad or duplicate Index=%d", i, p.Index)
		}
		indexSeen[p.Index] = true
		if p.Result == nil || p.Result.ID != exps[p.Index].ID {
			t.Errorf("callback %d carries wrong result for index %d", i, p.Index)
		}
	}
}

// TestRunAllReleasesGoroutines verifies the registry wrapper's engine
// teardown end to end: after a parallel batch completes, every simulation
// engine the experiments built has been Shutdown, so the process goroutine
// count returns to (near) its pre-batch level instead of accumulating one
// goroutine per blocked controller across thousands of runs.
func TestRunAllReleasesGoroutines(t *testing.T) {
	exps := testSubset(t)
	mustRunAll(t, exps, 4, nil) // warm up lazy init
	before := runtime.NumGoroutine()
	mustRunAll(t, exps, 4, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d long after RunAll, baseline %d (engines not shut down?)",
				runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuickExperimentsRetainLittleHeap guards the process-global pools (mem's
// chunk and payload-header pools, the backing slabs) against keeping a dead
// machine reachable: a parked header that still pointed at its cells, or a
// carved slab pinned by one parked neighbour, would leave an experiment's
// heap behind it. Each experiment runs at quick scale on its own, and the
// live heap after a collection must not have grown by more than 4 MB.
//
// The same serial run is the quick suite's allocation ceiling: the objects
// each experiment allocates are logged, and the suite total fails above
// 250 000 (199 649 measured, 210 005 under -race; 606 903 and 617 491
// before the SPDK closed loops reused one request window instead of
// allocating a request per I/O).
func TestQuickExperimentsRetainLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole quick suite, serially")
	}
	const limit, ceiling = 4 << 20, 250_000
	var m runtime.MemStats
	var total uint64
	for _, e := range All() {
		runtime.GC()
		runtime.ReadMemStats(&m)
		before, mallocs := m.HeapAlloc, m.Mallocs
		mustRunAll(t, []Experiment{e}, 1, nil)
		runtime.ReadMemStats(&m)
		objs := m.Mallocs - mallocs
		total += objs
		runtime.GC()
		runtime.ReadMemStats(&m)
		grew := int64(m.HeapAlloc) - int64(before)
		t.Logf("%s: live heap %+.2f MB, %d objects", e.ID, float64(grew)/(1<<20), objs)
		if grew > limit {
			t.Errorf("%s left %.1f MB more live heap behind, limit %d MB", e.ID, float64(grew)/(1<<20), limit>>20)
		}
	}
	t.Logf("quick suite: %d objects (ceiling %d)", total, ceiling)
	if total > ceiling {
		t.Errorf("quick suite allocated %d objects, ceiling %d", total, ceiling)
	}
}

// TestShardMatrixDeterminism is the runner-pool determinism gate for the
// write-heavy workload: the experiment matrix sharded across one worker and
// across eight must render byte-identically. kv's spill/fill/prefetch
// concurrency must come out the same however the pool interleaves
// experiments around it.
func TestShardMatrixDeterminism(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig2", "kv"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	serial := render(mustRunAll(t, exps, 1, nil))
	pooled := render(mustRunAll(t, exps, 8, nil))
	if pooled != serial {
		t.Errorf("parallel=8 rendered different output than parallel=1:\n%s\nvs reference:\n%s", pooled, serial)
	}
}
