package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// params is everything a workload's inputs are generated from.
type params struct {
	seed uint64
	// scale sizes the timed phase: 1.0 is the BENCHMARK.json run length
	// (five reps of about two seconds each on the 2-core reference box).
	// Sizes scale with it by a fixed rule, never by host speed, so the
	// model-side metrics depend only on (seed, scale).
	scale float64
}

// smokeScale is the scale the bench's own tests run at: every workload
// finishes a rep in well under a second.
const smokeScale = 0.02

// scaled returns n*scale, at least floor.
func (p params) scaled(n, floor int) int {
	return max(floor, int(float64(n)*p.scale+0.5))
}

// workload is one set of inputs the benchmark runs. setup builds the
// machine, drivers and buffers, generates the inputs and populates the
// array (everything setup_s covers) and records its two sub-spans.
type workload struct {
	name  string
	why   string
	setup func(p params, sp spans) instance
}

// instance is a built, populated machine ready for its timed phase.
type instance interface {
	// run is the timed phase (wall_s, allocs_per_op, bytes_per_op). It
	// calls tick at fixed points of its progress, the same points in every
	// rep, which cuts the phase into slices of identical work.
	run(tick func())
	verify(r *rep)  // checks outputs; sets attempted and failed
	collect(r *rep) // model-side metrics and exact counts
	shutdown()      // releases the engines' goroutines
}

// spans holds host-time spans in milliseconds, recorded by the bench's own
// stopwatch around calls into the layers.
type spans map[string]float64

func (sp spans) since(name string, t0 time.Time) {
	sp[name] += float64(time.Since(t0).Nanoseconds()) / 1e6
}

// rep is one repetition's measurements.
type rep struct {
	host      map[string]float64 // host side: noisy, summarised in runChild
	model     map[string]float64 // model side and counts: must repeat exactly
	spans     spans
	slices    []float64 // host seconds per slice of the run phase
	attempted int64
	failed    int64
	digest    string         // suite-quick output hash
	profile   map[string]int // traced reps: CPU samples per layer
}

// runRep performs one repetition. With profile set it samples the CPU
// around the run phase and folds the samples by layer.
func runRep(w workload, p params, profile bool) (r rep, err error) {
	r = rep{host: map[string]float64{}, model: map[string]float64{}, spans: spans{}}
	// Every rep starts from the heap a fresh process would have: collected
	// and returned to the OS. Set-up times of a few milliseconds otherwise
	// depend on what the previous rep left behind (2.6 or 3.7 ms on
	// suite-quick, by run).
	debug.FreeOSMemory()

	t0 := time.Now()
	inst := w.setup(p, r.spans)
	r.host["setup_s"] = time.Since(t0).Seconds()

	runtime.GC()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	marks := make([]time.Duration, 0, 4096)
	t1 := time.Now()
	inst.run(func() { marks = append(marks, time.Since(t1)) })
	wall := time.Since(t1)
	runtime.ReadMemStats(&m1)
	marks = append(marks, wall)
	for i, m := range marks {
		if i > 0 {
			m -= marks[i-1]
		}
		r.slices = append(r.slices, m.Seconds())
	}
	if profile {
		pprof.StopCPUProfile()
		if r.profile, err = foldProfile(prof.Bytes()); err != nil {
			return r, err
		}
	}
	r.host["wall_s"] = wall.Seconds()
	r.host["allocs_per_op"] = float64(m1.Mallocs - m0.Mallocs)
	r.host["bytes_per_op"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.spans["sim.run_ms"] = float64(wall.Nanoseconds()) / 1e6

	t2 := time.Now()
	inst.verify(&r)
	r.spans.since("harness.verify_ms", t2)
	inst.collect(&r)
	t3 := time.Now()
	inst.shutdown()
	r.spans.since("sim.shutdown_ms", t3)

	if simS := r.model["sim_s"]; simS > 0 {
		r.host["sim_per_wall"] = simS / wall.Seconds()
	}
	return r, nil
}
