package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"time"

	"camsim/internal/harness"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

// suiteSpanIDs are the experiments whose host time is reported on its own.
var suiteSpanIDs = []string{"fig1", "fig2", "fig8", "fig9", "fig10a", "fig10bc", "kv", "abl-shard", "abl-fanin", "abl-multigpu"}

// suiteQuick runs every registered experiment at quick scale, serially —
// what `cambench -exp all -quick -parallel 1` runs — followed by one
// out-of-core sort on CAM keyed by the seed, the `camsort -seed N` path.
// The experiments take no seed (their streams are fixed in the harness), so
// the sort is what makes this workload's inputs follow --seed.
type suiteQuick struct {
	exps   []harness.Experiment
	env    *platform.Env
	sorter *sortx.Sorter
	spans  spans

	simTotal sim.Time
	digest   string
	sortErr  error
	ran      int
}

func setupSuite(p params, sp spans) instance {
	w := &suiteQuick{spans: sp}
	for _, e := range harness.All() {
		// The suite has one size; below smokeScale (the bench's own tests)
		// only the experiments that render tables without simulating run.
		if p.scale > smokeScale || strings.HasPrefix(e.ID, "tab") {
			w.exps = append(w.exps, e)
		}
	}
	t0 := time.Now()
	w.env = platform.New(platform.Options{SSDs: camSSDs, Seed: p.seed})
	b := xfer.NewCAM(w.env, 65536, nil)
	keys := int64(1 << 21)
	if p.scale <= smokeScale {
		keys = 1 << 18
	}
	w.sorter = sortx.New(w.env, b, sortx.Config{
		NumInts: keys, RunBytes: keys, ChunkBytes: 256 << 10, SortRate: 4e9, MergeRate: 8e9,
	})
	sp.since("platform.build_ms", t0)
	t1 := time.Now()
	w.env.E.Go("bench.fill", func(proc *sim.Proc) { w.sorter.Fill(proc, p.seed) })
	w.env.Run()
	sp.since("harness.populate_ms", t1)
	return w
}

func (w *suiteQuick) run(tick func()) {
	h := sha256.New()
	for _, e := range w.exps {
		t0 := time.Now()
		res := e.Run(harness.RunConfig{Quick: true})
		if slices.Contains(suiteSpanIDs, e.ID) {
			w.spans.since("harness."+e.ID+"_wall_ms", t0)
		}
		h.Write([]byte(res.String()))
		w.simTotal += res.SimElapsed
		w.ran++
		tick()
	}
	w.digest = fmt.Sprintf("%x", h.Sum(nil))

	start := w.env.E.Now()
	w.env.E.Go("bench.sort", func(proc *sim.Proc) { w.sorter.Sort(proc) })
	w.simTotal += w.env.Run() - start
}

func (w *suiteQuick) verify(r *rep) {
	w.sortErr = fmt.Errorf("sort verification did not run")
	w.env.E.Go("bench.verify", func(proc *sim.Proc) { w.sortErr = w.sorter.Verify(proc) })
	w.env.Run()
	r.attempted = int64(len(w.exps)) + 1
	r.failed = int64(len(w.exps) - w.ran)
	if w.sortErr != nil {
		r.failed++
	}
	r.digest = w.digest
}

func (w *suiteQuick) collect(r *rep) {
	r.model["sim_s"] = w.simTotal.Seconds()
}

func (w *suiteQuick) shutdown() { w.env.E.Shutdown() }
