package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const timedReps = 5 // timed repetitions after one discarded warm-up

// summary is one end-to-end metric of one run: the reported value and,
// for host-side metrics, the spread of the per-rep values behind it.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
}

// result is what one child process measured on one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Errors lists determinism failures: model-side values that differed
	// between reps of the same seed.
	Errors []string `json:"errors,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// bestWall estimates the uncontended run-phase time from several reps of
// identical work: each slice contributes the fastest time any rep took for
// it. Interference from other tenants of the host only ever adds time, and
// it comes in bursts of seconds, so the per-slice minimum is far steadier
// than the median of whole reps (README "Noise").
func bestWall(reps []rep) float64 {
	total := 0.0
	for k := range reps[0].slices {
		best := reps[0].slices[k]
		for _, r := range reps[1:] {
			if k < len(r.slices) && r.slices[k] < best {
				best = r.slices[k]
			}
		}
		total += best
	}
	return total
}

func hostValues(reps []rep, name string) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = r.host[name]
	}
	return v
}

func summarise(value float64, v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Value: value, Median: median(v), Q1: q1, Q3: q3, Min: slices.Min(v), N: len(v)}
}

// runChild measures one workload in this process: a discarded warm-up rep,
// then the timed reps. With trace set, every second timed rep runs under the
// CPU profiler and the layer drives run too.
func runChild(w workload, p params, trace bool) (*result, error) {
	// The engine is single-threaded; a second P adds nothing but goroutine
	// migration between cores, which doubled run-to-run spread here.
	runtime.GOMAXPROCS(1)

	res := &result{Workload: w.name, Seed: p.seed, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
	if _, err := runRep(w, p, false); err != nil {
		return nil, err
	}
	n := timedReps
	if trace {
		n = 6 // alternating untraced and traced
	}
	var plain, traced []rep
	for i := 0; i < n; i++ {
		profiled := trace && i%2 == 1
		r, err := runRep(w, p, profiled)
		if err != nil {
			return nil, err
		}
		if profiled {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(append([]rep(nil), plain...), traced...)
	res.checkRepeatable(all)

	first := all[0]
	res.Attempted, res.Failed, res.Digest = first.attempted, first.failed, first.digest
	for _, r := range all[1:] {
		if r.failed > res.Failed {
			res.Failed = r.failed
		}
	}

	wall := bestWall(plain)
	simS := first.model["sim_s"]
	res.EndToEnd["wall_s"] = summarise(wall, hostValues(plain, "wall_s"))
	res.EndToEnd["sim_per_wall"] = summarise(simS/wall, hostValues(plain, "sim_per_wall"))
	for _, name := range []string{"allocs_per_op", "bytes_per_op"} {
		v := hostValues(plain, name)
		res.EndToEnd[name] = summarise(median(v), v)
	}
	setup := hostValues(plain, "setup_s")
	res.EndToEnd["setup_s"] = summarise(slices.Min(setup), setup)
	rss := peakRSSMB()
	res.EndToEnd["peak_rss_mb"] = summary{Value: rss, Median: rss, Q1: rss, Q3: rss, Min: rss, N: 1}
	for _, m := range endToEnd() {
		if v, ok := first.model[m.name]; ok && m.model {
			res.EndToEnd[m.name] = summary{Value: v, Median: v, Q1: v, Q3: v, Min: v, N: len(all)}
		}
	}

	for _, m := range counts {
		res.PerLayer[m.name] = first.model[m.name]
	}
	for _, m := range reported {
		res.PerLayer[m.name] = res.EndToEnd[m.name].Value
	}
	for _, name := range spanNames {
		v := make([]float64, len(all))
		for i, r := range all {
			v[i] = r.spans[name]
		}
		res.PerLayer[name] = median(v)
	}
	if trace {
		res.foldShares(traced)
		res.PerLayer[traceOverhead] = bestWall(traced)/wall - 1
		res.runDrives(p.scale, wall, first.attempted)
	}
	return res, nil
}

// checkRepeatable records every model-side value, count or output digest
// that differs between reps: the same seed must give the same simulation.
func (res *result) checkRepeatable(reps []rep) {
	first := reps[0]
	names := make([]string, 0, len(first.model))
	for name := range first.model {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, r := range reps[1:] {
		for _, name := range names {
			if r.model[name] != first.model[name] {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: rep %d gave %v, rep 0 gave %v", name, i+1, r.model[name], first.model[name]))
			}
		}
		if len(r.model) != len(first.model) || r.digest != first.digest ||
			r.attempted != first.attempted || len(r.slices) != len(first.slices) {
			res.Errors = append(res.Errors, fmt.Sprintf("rep %d differs from rep 0 in output digest, operation count or shape", i+1))
		}
	}
}

// foldShares turns the traced reps' CPU samples into per-layer shares.
func (res *result) foldShares(traced []rep) {
	total := 0
	sum := map[string]int{}
	for _, r := range traced {
		for layer, n := range r.profile {
			sum[layer] += n
			total += n
		}
	}
	for _, l := range layers {
		res.PerLayer[l+".cpu_share"] = ratio(float64(sum[l]), float64(total))
	}
}

// runDrives runs every layer drive and derives the two self-time deltas.
func (res *result) runDrives(scale, wall float64, ops int64) {
	var events, allocs float64
	for _, d := range drives {
		dr := runDrive(d, scale)
		res.PerLayer[d.metric] = dr.ns
		if strings.HasPrefix(d.metric, "sim.") && strings.HasSuffix(d.metric, "_per_event") {
			events++
			allocs += dr.allocs
		}
	}
	res.PerLayer[allocsPerEvent] = allocs / events
	res.PerLayer["spdk.self_ns_per_req"] = res.PerLayer["spdk.ns_per_req"] - res.PerLayer["ssd.ns_per_read_cmd"]
	if res.Workload == "cam-read-4k" {
		res.PerLayer["cam.self_ns_per_io"] = wall*1e9/float64(ops) - res.PerLayer["spdk.ns_per_req"]
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to what the Go runtime obtained from the OS.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
