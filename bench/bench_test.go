package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"

	"camsim/internal/harness"
	"camsim/internal/sim"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in metrics.go
// and main.go, and both to the contract's limits on names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the sizes are calibrated for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: listed %q, defined %q (why at most 200 characters)", i, doc.Workloads[i].Name, w.name)
		}
		check(w.name, "", "")
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics listed, %d defined", len(doc.EndToEnd), len(gated))
	}
	hasSetup := false
	for i, m := range gated {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end %d: listed %+v, defined %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
		check(m.name, m.unit, m.better)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	defined := perLayer()
	if len(doc.PerLayer) != len(defined) || len(defined) > 128 {
		t.Fatalf("%d per_layer metrics listed, %d defined (at most 128)", len(doc.PerLayer), len(defined))
	}
	for i, m := range defined {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d: listed %+v, defined %+v", i, got, m)
		}
		check(m.name, m.unit, m.better)
	}
}

// servingOn says which of the serving-only end-to-end metrics a workload has.
var servingOn = map[string][]string{
	"cam-read-4k":  {"sim_lat_p50_us", "sim_lat_p99_us"},
	"cam-mixed-4k": {"sim_lat_p50_us", "sim_lat_p99_us"},
	"kv-serve":     {"sim_lat_p50_us", "sim_lat_p99_us", "sim_tokens_per_s", "sim_ttft_p50_ms"},
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsEmitListedMetrics runs every workload untraced at smoke
// scale and checks that it verifies clean, repeats exactly, and emits the
// end-to-end metrics that apply to it, all non-zero, and nothing else.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			res, err := runChild(w, params{seed: 1, scale: smokeScale}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Fatalf("failed %d of %d, errors %v", res.Failed, res.Attempted, res.Errors)
			}
			var want []string
			for _, m := range gated {
				want = append(want, m.name)
			}
			want = append(append(want, "bytes_per_op"), servingOn[w.name]...)
			sort.Strings(want)
			if got := keys(res.EndToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, want %v", got, want)
			}
			for name, s := range res.EndToEnd {
				if s.Value <= 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s = %v, want a positive number", name, s.Value)
				}
			}
			listed := map[string]bool{}
			for _, m := range perLayer() {
				listed[m.name] = true
			}
			for name := range res.PerLayer {
				if !listed[name] {
					t.Errorf("per-layer metric %s is not in the table", name)
				}
			}
			t.Logf("%d reps in %v", timedReps+1, time.Since(start))
		})
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs one traced child and checks
// the contract line: every listed per-layer metric, nothing else, shares
// summing to one.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	w, _ := findWorkload("cam-read-4k")
	res, err := runChild(w, params{seed: 1, scale: 4 * smokeScale}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("failed %d of %d, errors %v", res.Failed, res.Attempted, res.Errors)
	}
	var want []string
	for _, m := range perLayer() {
		want = append(want, m.name)
	}
	sort.Strings(want)
	if got := keys(res.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, want %v", got, want)
	}
	sum := 0.0
	for _, l := range layers {
		sum += res.PerLayer[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	for _, d := range drives {
		if res.PerLayer[d.metric] <= 0 {
			t.Errorf("%s = %v", d.metric, res.PerLayer[d.metric])
		}
	}
}

// TestFoldProfileBusyLoop profiles a loop that keeps internal/sim's event
// queue busy with empty events and expects the folder to put at least 90 %
// of the samples in sim.
func TestFoldProfileBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	e := sim.New()
	fn := func() {}
	for start := time.Now(); time.Since(start) < 600*time.Millisecond; {
		for i := 0; i < 4096; i++ {
			e.Schedule(sim.Time(i%977)*sim.Microsecond, fn)
		}
		e.Run()
	}
	pprof.StopCPUProfile()
	folded, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range folded {
		total += n
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if share := float64(folded["sim"]) / float64(total); share < 0.9 {
		t.Errorf("sim holds %.0f%% of %d samples (%v), want >= 90%%", 100*share, total, folded)
	}
}

func TestStackLayer(t *testing.T) {
	for want, frames := range map[string][]string{
		"sim":     {"camsim/internal/sim.(*Engine).RunUntil", "main.main"},
		"kvcache": {"camsim/internal/kvcache.(*Tier).Touch"},
		"runtime": {"runtime.memmove", "camsim/internal/mem.(*Payload).ReadAt"},
		// A standard-library helper counts for the layer that called it.
		"nvme": {"encoding/binary.littleEndian.PutUint64", "camsim/internal/nvme.(*SQE).Marshal", "camsim/internal/spdk.(*reactorStep).submitA"},
		// Packages that are not layers, and the bench itself, are "other".
		"other": {"sort.Float64s", "main.percentile"},
	} {
		if got := stackLayer(frames); got != want {
			t.Errorf("stackLayer(%v) = %q, want %q", frames, got, want)
		}
	}
	for fn, want := range map[string]string{
		"camsim/internal/sim.(*Store[go.shape.*uint8]).Put": "sim",
		"camsim/internal/platform.New":                      "other",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"runtime/internal/atomic.Load":                      "runtime",
		"math/bits.TrailingZeros64":                         "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSimDrivesDoNotAllocate: internal/sim pins events and process wake-ups
// at (near) zero allocations with AllocsPerRun ceilings; the drives over the
// same paths must agree.
func TestSimDrivesDoNotAllocate(t *testing.T) {
	for _, d := range drives {
		switch d.metric {
		case "sim.now_ns_per_event", "sim.near_ns_per_event", "sim.far_ns_per_event", "sim.proc_ns_per_switch":
			if r := runDrive(d, 0.1); r.allocs > 0.02 {
				t.Errorf("%s: %.4f allocs/op, want 0", d.metric, r.allocs)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{2.1, 1.9, 2.4, 2.0, 3.5, 2.2, 1.8, 2.05, 2.6, 2.3}
	q1, q3 := quartiles(v)
	if math.Abs(q1-1.975) > 1e-12 || math.Abs(q3-2.45) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 1.975, 2.45", q1, q3)
	}
	if m := median(v); math.Abs(m-2.15) > 1e-12 {
		t.Errorf("median = %v, want 2.15", m)
	}
}

// TestKVServeMatchesKVRun: kv-serve builds its server itself so that it can
// time the phases apart and slice the serving phase; it must simulate exactly
// what harness.KVRun (the cmd/camkv path) simulates, watcher process and all.
func TestKVServeMatchesKVRun(t *testing.T) {
	scale := 1.0
	if testing.Short() {
		scale = smokeScale
	}
	p := params{seed: 3, scale: scale}
	w, _ := findWorkload("kv-serve")
	got, err := runRep(w, p, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, env := harness.KVRun(harness.RunConfig{}, p.kvParams(), "CAM")
	defer env.E.Shutdown()
	st := srv.Stats()
	for name, want := range map[string]float64{
		"sim_s":                 (st.LastEnd - st.FirstArrival).Seconds(),
		"sim_lat_p50_us":        srv.StepLatency().Percentile(50),
		"sim_lat_p99_us":        srv.StepLatency().Percentile(99),
		"sim_tokens_per_s":      st.TokensPerSec(),
		"sim_ttft_p50_ms":       srv.TTFT().Percentile(50) / 1000,
		"kvcache.hit_rate":      st.HitRate(),
		"kvcache.prefetch_rate": st.PrefetchRate(),
		"kvcache.fills":         float64(st.Fills),
		"kvcache.spills":        float64(st.Spills),
		"kvcache.clean_drops":   float64(st.CleanDrops),
	} {
		if got.model[name] != want {
			t.Errorf("%s = %v, harness.KVRun gives %v", name, got.model[name], want)
		}
	}
	if got.failed != 0 || len(got.slices) < 2 {
		t.Errorf("failed %d, %d slices", got.failed, len(got.slices))
	}
}

// TestKVSeedAvoidsKnownCrashes: every --seed lands on a seed the shape
// guard and the sizing sweep found clean.
func TestKVSeedAvoidsKnownCrashes(t *testing.T) {
	bad := map[uint64]bool{11: true, 45: true, 53: true, 64: true, 65: true, 67: true}
	pool := map[uint64]bool{}
	for _, seed := range []uint64{0, 1, 2, 63, 64, 65, 1000, math.MaxUint64} {
		pool[kvSeed(seed)] = true
	}
	for seed := uint64(1); seed <= 200; seed++ {
		k := kvSeed(seed)
		pool[k] = true
		if bad[k] || k < 1 || k > 70 {
			t.Errorf("kvSeed(%d) = %d", seed, k)
		}
		if seed <= 10 && k != seed {
			t.Errorf("kvSeed(%d) = %d, want identity on 1..10", seed, k)
		}
	}
	if len(pool) != 64 {
		t.Errorf("pool holds %d seeds, want 64", len(pool))
	}
}

// TestKVShapeSeeds is the kv-serve shape guard: the chosen shape must serve
// and verify clean on seeds 1–8. A seed that trips the known publish/settle
// defect (README "Known failure outside bench/") panics in a simulation
// goroutine and takes the test binary down with it.
func TestKVShapeSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the full shape eight times")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		kp := params{seed: seed, scale: 1}.kvParams()
		srv, env := harness.KVRun(harness.RunConfig{}, kp, "CAM")
		if got, want := srv.Stats().DecodedTokens, uint64(kp.Sessions*kp.Decode); got != want {
			t.Errorf("seed %d: decoded %d tokens, want %d", seed, got, want)
		}
		env.E.Shutdown()
	}
}
