package harness

import (
	"fmt"
	"strings"
	"testing"

	"camsim/internal/nvme"
	"camsim/internal/platform"
)

func run(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e.Run(RunConfig{Quick: true})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10a", "fig10bc",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
		"abl-dyncores", "abl-batch", "abl-outstanding", "abl-ftl", "abl-cache", "abl-multigpu", "abl-fanin",
		"abl-faults", "abl-shard", "kv",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids())
	}
}

// ids lists the registered experiment ids in All's order.
func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

func TestIDOrdering(t *testing.T) {
	ids := ids()
	// fig2 must come before fig10a (numeric-aware ordering).
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["fig2"] > pos["fig10a"] {
		t.Fatalf("ordering wrong: %v", ids)
	}
	if pos["fig16"] > pos["tab1"] {
		t.Fatalf("figs should precede tabs: %v", ids)
	}
}

// seriesY extracts y values by series name from a figure.
func seriesY(r *Result, figIdx int, name string) []float64 {
	for _, s := range r.Figs[figIdx].Series {
		if s.Name == name {
			return s.Y
		}
	}
	return nil
}

func TestFig2Shapes(t *testing.T) {
	r := run(t, "fig2")
	tb := r.Tables[0]
	// Rows: POSIX, libaio, io_uring int, io_uring poll, device max.
	read := func(i int) float64 { return parseF(t, tb.Rows[i][1]) }
	if !(read(0) < read(1) && read(1) < read(2) && read(2) < read(3)) {
		t.Fatalf("stack ordering broken:\n%s", tb)
	}
	if read(3) >= read(4) {
		t.Fatalf("io_uring poll reached the device line:\n%s", tb)
	}
}

func TestFig3FSPlusIOMap(t *testing.T) {
	r := run(t, "fig3")
	for _, tb := range r.Tables {
		for _, row := range tb.Rows {
			if v := parseF(t, row[6]); v < 0.34 {
				t.Fatalf("fs+iomap = %v < 0.34 in row %v", v, row)
			}
		}
	}
}

func TestFig4Saturation(t *testing.T) {
	r := run(t, "fig4")
	y := seriesY(r, 0, "BaM")
	if len(y) != 12 {
		t.Fatalf("series length %d", len(y))
	}
	if y[4] < 99 { // 5 SSDs
		t.Fatalf("5 SSDs should need ~100%% of SMs, got %.1f", y[4])
	}
	if y[0] > 25 {
		t.Fatalf("1 SSD needs %.1f%%, want ~20%%", y[0])
	}
}

func TestFig8Shapes(t *testing.T) {
	r := run(t, "fig8")
	if len(r.Figs) != 4 {
		t.Fatalf("fig8 has %d sub-figures", len(r.Figs))
	}
	camRead := seriesY(r, 0, "CAM")
	posixRead := seriesY(r, 0, "POSIX")
	// CAM scales with SSD count; POSIX does not.
	if camRead[len(camRead)-1] < 2*camRead[0] {
		t.Fatalf("CAM read did not scale: %v", camRead)
	}
	if posixRead[len(posixRead)-1] > 2*posixRead[0] {
		t.Fatalf("POSIX scaled with SSDs: %v", posixRead)
	}
	// 12 SSDs at 4KB: CAM near the PCIe ceiling (~20 GB/s).
	last := camRead[len(camRead)-1]
	if last < 17 || last > 22 {
		t.Fatalf("CAM 12-SSD 4KB read = %.1f GB/s, want ~20", last)
	}
	// Granularity sweep rises.
	camGran := seriesY(r, 1, "CAM")
	if camGran[0] >= camGran[len(camGran)-1] {
		t.Fatalf("throughput did not grow with granularity: %v", camGran)
	}
	// Writes slower than reads at 12 SSDs.
	camWrite := seriesY(r, 2, "CAM")
	if camWrite[len(camWrite)-1] >= last {
		t.Fatalf("write %.1f GB/s not below read %.1f", camWrite[len(camWrite)-1], last)
	}
}

// TestFig8aEventMix pins the event traffic the engine's calendar geometry
// was derived from (DESIGN.md §12), on the paper's headline point — CAM,
// 12 SSDs, 4 KiB random reads: five events per I/O (three reactor steps, two
// device command phases) and next to nothing past the 1.05 ms horizon. The
// figure's point is only 8192 requests long, so the ≈1.4 k events of
// pipeline fill and drain lift the ratio to 5.18; the 1.5 M-request
// cam-read-4k benchmark workload measures 4.98. A model change that moves
// either number should re-derive the geometry, not inherit it.
func TestFig8aEventMix(t *testing.T) {
	_, env, mgr := camThroughput(RunConfig{Quick: true}, 12, nvme.OpRead, 4096, 0, 2, platform.Options{})
	defer env.E.Shutdown()
	ev := env.E.QueueStats()
	reqs := mgr.Stats().Requests
	if reqs == 0 || ev.Dispatched == 0 {
		t.Fatalf("nothing ran: %d requests, %+v", reqs, ev)
	}
	if perIO := float64(ev.Dispatched) / float64(reqs); perIO < 4.9 || perIO > 5.25 {
		t.Errorf("%d events dispatched for %d requests = %.2f per I/O, want 5.0 plus fill and drain (4.9–5.25)", ev.Dispatched, reqs, perIO)
	}
	if share := float64(ev.OverflowPushes) / float64(ev.Pushes()); share >= 0.02 {
		t.Errorf("%d of %d pushes (%.1f%%) landed past the calendar horizon, want < 2%%",
			ev.OverflowPushes, ev.Pushes(), 100*share)
	}
	if ev.Pushes() != ev.Dispatched+ev.DeadTimers+uint64(env.E.Pending()) {
		t.Errorf("counters do not add up: %+v with %d pending", ev, env.E.Pending())
	}
	t.Logf("%d requests: %+v", reqs, ev)
}

func TestFig9Speedups(t *testing.T) {
	r := run(t, "fig9")
	tb := r.Tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("fig9 rows = %d, want 6", len(tb.Rows))
	}
	var p100, igb []float64
	for _, row := range tb.Rows {
		sp := parseF(t, row[4])
		if sp < 1.0 || sp > 2.05 {
			t.Fatalf("speedup %v out of range in %v", sp, row)
		}
		if row[0] == "Paper100M" {
			p100 = append(p100, sp)
		} else {
			igb = append(igb, sp)
		}
	}
	// IGB speedups exceed Paper100M on average (paper's third observation).
	if mean(igb) <= mean(p100) {
		t.Fatalf("IGB mean speedup %.2f not above Paper100M %.2f", mean(igb), mean(p100))
	}
}

func TestFig10aOrdering(t *testing.T) {
	r := run(t, "fig10a")
	cam := seriesY(r, 0, "CAM")
	spdk := seriesY(r, 0, "SPDK")
	posix := seriesY(r, 0, "POSIX")
	for i := range cam {
		if posix[i] <= cam[i] {
			t.Fatalf("POSIX sort (%v ms) not slower than CAM (%v ms)", posix[i], cam[i])
		}
		ratio := spdk[i] / cam[i]
		if ratio < 0.6 || ratio > 1.8 {
			t.Fatalf("CAM/SPDK sort mismatch: %v vs %v", cam[i], spdk[i])
		}
	}
}

func TestFig10bcOrdering(t *testing.T) {
	r := run(t, "fig10bc")
	tb := r.Tables[0]
	vals := map[string]float64{}
	for _, row := range tb.Rows {
		vals[row[0]] = parseF(t, row[1]) // GB/s
	}
	if !(vals["CAM"] > vals["BaM"] && vals["BaM"] > vals["GDS"]) {
		t.Fatalf("GEMM ordering wrong: %v", vals)
	}
	if vals["GDS"] > 2.0 {
		t.Fatalf("GDS = %.2f GB/s, want ~0.8", vals["GDS"])
	}
}

func TestFig11Coincide(t *testing.T) {
	r := run(t, "fig11")
	sync := seriesY(r, 0, "CAM-Sync")
	async := seriesY(r, 0, "CAM-Async")
	for i := range sync {
		if d := sync[i] / async[i]; d < 0.9 || d > 1.12 {
			t.Fatalf("sync/async diverge at point %d: %v vs %v", i, sync[i], async[i])
		}
	}
}

func TestFig12Staircase(t *testing.T) {
	r := run(t, "fig12")
	tb := r.Tables[0]
	pct := func(i int) float64 { return parseF(t, tb.Rows[i][4]) }
	if pct(1) < 92 {
		t.Fatalf("2 SSDs/thread at %.0f%%, want ~100%%:\n%s", pct(1), tb)
	}
	if p := pct(3); p < 60 || p > 88 {
		t.Fatalf("4 SSDs/thread at %.0f%%, want ~75%%:\n%s", p, tb)
	}
}

func TestFig13CAMBelowLibaio(t *testing.T) {
	r := run(t, "fig13")
	tb := r.Tables[0]
	get := func(sys, op string) (instr, cycles float64) {
		for _, row := range tb.Rows {
			if row[0] == sys && row[1] == op {
				return parseF(t, row[2]), parseF(t, row[3])
			}
		}
		t.Fatalf("row %s/%s missing", sys, op)
		return 0, 0
	}
	for _, op := range []string{"Read", "Write"} {
		ci, cc := get("CAM", op)
		li, lc := get("libaio", op)
		si, sc := get("SPDK", op)
		if ci >= li || si >= li {
			t.Fatalf("%s: CAM/SPDK instructions (%v/%v) not below libaio (%v)", op, ci, si, li)
		}
		if cc >= lc/2 || sc >= lc/2 {
			t.Fatalf("%s: CAM/SPDK cycles (%v/%v) not far below libaio (%v)", op, cc, sc, lc)
		}
	}
	// Writes cost more than reads for the polling drivers.
	cri, _ := get("CAM", "Read")
	cwi, _ := get("CAM", "Write")
	if cwi <= cri {
		t.Fatalf("CAM write instructions %v not above read %v", cwi, cri)
	}
}

func TestFig14Ratios(t *testing.T) {
	r := run(t, "fig14")
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		ratio := parseF(t, row[4])
		switch row[0] {
		case "CAM":
			if ratio > 0.1 {
				t.Fatalf("CAM DRAM/SSD ratio = %v, want ~0", ratio)
			}
		case "SPDK":
			if ratio < 1.7 || ratio > 2.3 {
				t.Fatalf("SPDK DRAM/SSD ratio = %v, want ~2", ratio)
			}
		}
	}
}

func TestFig15OnlySPDKDegrades(t *testing.T) {
	r := run(t, "fig15")
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		loss := parseF(t, row[4])
		switch row[0] {
		case "CAM":
			if loss > 5 {
				t.Fatalf("CAM lost %.1f%% at 2 channels:\n%s", loss, tb)
			}
		case "SPDK":
			if row[1] == "Read" && loss < 10 {
				t.Fatalf("SPDK read lost only %.1f%% at 2 channels:\n%s", loss, tb)
			}
		}
	}
}

func TestFig16Collapse(t *testing.T) {
	r := run(t, "fig16")
	cam := seriesY(r, 0, "CAM")
	spdk := seriesY(r, 0, "SPDK")
	// At 4 KiB SPDK collapses to ~1.3 GB/s, >90% below CAM.
	if spdk[0] > 2.0 {
		t.Fatalf("SPDK 4KB scattered = %.2f GB/s, want ~1.3", spdk[0])
	}
	if 1-spdk[0]/cam[0] < 0.85 {
		t.Fatalf("SPDK only %.0f%% below CAM at 4KB", 100*(1-spdk[0]/cam[0]))
	}
	// At the largest granularity SPDK recovers.
	last := len(spdk) - 1
	if spdk[last] < 0.6*cam[last] {
		t.Fatalf("SPDK did not recover at large granularity: %v vs %v", spdk[last], cam[last])
	}
}

func TestFig1Breakdown(t *testing.T) {
	r := run(t, "fig1")
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		extract := parseF(t, row[2])
		if extract < 40 || extract > 70 {
			t.Fatalf("extract %% = %v for %v, want 40-70", extract, row[0])
		}
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab3", "tab4", "tab5", "tab6"} {
		r := run(t, id)
		out := r.String()
		if len(out) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", id, out)
		}
	}
}

func TestTab6CountsRealFunctions(t *testing.T) {
	r := run(t, "tab6")
	tb := r.Tables[0]
	if len(tb.Rows) < 5 {
		t.Fatalf("tab6 rows: %d\nnotes: %v", len(tb.Rows), r.Notes)
	}
	for _, row := range tb.Rows {
		if parseF(t, row[2]) < 5 {
			t.Errorf("implausibly small LoC count in %v", row)
		}
	}
}

func TestResultStringContainsEverything(t *testing.T) {
	r := run(t, "fig4")
	s := r.String()
	for _, want := range []string{"fig4", "SM", "BaM"} {
		if !strings.Contains(s, want) {
			t.Errorf("result output missing %q:\n%s", want, s)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return v
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func TestAblationsRunQuick(t *testing.T) {
	ran := 0
	for _, id := range ids() {
		if !strings.HasPrefix(id, "abl-") {
			continue
		}
		ran++
		r := run(t, id)
		if len(r.Tables)+len(r.Figs) == 0 {
			t.Errorf("%s produced no output", id)
		}
		// Every engine an experiment simulates on is registered with the
		// run's accounting, however it was driven (abl-shard goes through
		// sim.Cluster, not runEnv).
		if r.SimElapsed > 0 && r.Events.Dispatched == 0 {
			t.Errorf("%s simulated %s but reports no dispatched events", id, r.SimElapsed)
		}
	}
	if ran == 0 {
		t.Error("no abl-* experiment is registered")
	}
}

func TestAblFTLWriteAmplificationShape(t *testing.T) {
	r := run(t, "abl-ftl")
	tb := r.Tables[0]
	first := parseF(t, tb.Rows[0][1])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][1])
	if last <= first {
		t.Fatalf("write amplification did not grow with utilization: %v -> %v", first, last)
	}
}

func TestAblCacheSkewShape(t *testing.T) {
	r := run(t, "abl-cache")
	tb := r.Tables[0]
	// Hit rate column (3) grows down the skew rows; cached throughput (2)
	// beats plain (1) under the heaviest skew.
	hrFirst := parseF(t, tb.Rows[0][3])
	hrLast := parseF(t, tb.Rows[len(tb.Rows)-1][3])
	if hrLast <= hrFirst {
		t.Fatalf("hit rate did not grow with skew: %v -> %v", hrFirst, hrLast)
	}
	plain := parseF(t, tb.Rows[len(tb.Rows)-1][1])
	cached := parseF(t, tb.Rows[len(tb.Rows)-1][2])
	if cached <= plain {
		t.Fatalf("cache did not help under skew: %v vs %v", plain, cached)
	}
}

func TestAblMultiGPUFairAggregate(t *testing.T) {
	r := run(t, "abl-multigpu")
	tb := r.Tables[0]
	agg1 := parseF(t, tb.Rows[0][1])
	for _, row := range tb.Rows {
		agg := parseF(t, row[1])
		if agg < 0.9*agg1 || agg > 1.15*agg1 {
			t.Fatalf("aggregate should stay at the array limit: %v vs %v", agg, agg1)
		}
		if fair := parseF(t, row[3]); fair < 0.95 {
			t.Fatalf("unfair split: %v", fair)
		}
	}
}
