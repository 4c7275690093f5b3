package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"camsim/internal/metrics"
)

// claims is the paper's evaluation as one table. Each row is a sentence of
// the paper (§IV) or of EXPERIMENTS.md, a measurement over the named values
// of one experiment's quick-scale result (Result.Value, Result.Series) and
// the bound every measured number must satisfy. status is "✅" where the
// reproduction shows what the paper says and "partial" where it holds only
// in shape (EXPERIMENTS.md says how). prov says where the number comes
// from: "input" where it reads back a calib row, "derived" where one line of
// arithmetic over calib rows predicts it (DESIGN §4), "emergent" where
// queueing or the experiment's own structure produces it. To add a claim,
// append a row: a name that does not exist fails the claim with the names
// that do.
var claims = []claim{
	{"fig1-extract", "fig1", "✅", "emergent", "feature extraction takes 40–65 % of GIDS training time",
		func(v vals) []float64 { return v.each("fig1.*.extract %", gnnModels...) }, within(40, 70)},
	{"fig2-read-order", "fig2", "✅", "derived", "POSIX < libaio < io_uring-int < io_uring-poll (each stack over the one before)",
		func(v vals) []float64 {
			return ratios(v.each("fig2.*.read KIOPS", kernelStacks[1:]...), v.each("fig2.*.read KIOPS", kernelStacks[:3]...))
		}, above(1)},
	{"fig2-below-device", "fig2", "✅", "input", "every software stack sits below the device line (io_uring-poll over the line)",
		ratioOf("fig2.io_uring poll.read KIOPS", "fig2.device max (dashed).read KIOPS"), below(1)},
	{"fig3-fs-iomap", "fig3", "✅", "input", "file system + I/O mapping cost >34 % of per-request time, on every stack, both directions",
		func(v vals) []float64 {
			return append(v.each("fig3-read.*.fs+iomap", kernelStacks...), v.each("fig3-write.*.fs+iomap", kernelStacks...)...)
		}, atLeast(0.34)},
	{"fig4-points", "fig4", "✅", "emergent", "the sweep covers 1–12 SSDs",
		func(v vals) []float64 { return nums(float64(len(v.series("fig4.BaM")))) }, within(12, 12)},
	{"fig4-5ssd", "fig4", "✅", "derived", "≈ all SMs at ≥5 SSDs (SM % at 5 SSDs)",
		valueOf("fig4.5.BaM"), atLeast(99)},
	{"fig4-1ssd", "fig4", "✅", "derived", "one SSD needs ~20 % of the SMs",
		valueOf("fig4.1.BaM"), atMost(25)},
	{"fig8-panels", "fig8", "✅", "emergent", "Fig 8 has four panels: SSD sweep, granularity sweep, writes, mixed",
		func(v vals) []float64 { return nums(float64(len(v.r.Figs))) }, within(4, 4)},
	{"fig8-cam-scales", "fig8", "✅", "derived", "CAM read throughput scales with the SSD count (12 over 1 SSD)",
		func(v vals) []float64 { return nums(lastOverFirst(v.series("fig8a.CAM"))) }, atLeast(2)},
	{"fig8-posix-flat", "fig8", "✅", "derived", "POSIX does not scale with SSDs (12 over 1 SSD)",
		func(v vals) []float64 { return nums(lastOverFirst(v.series("fig8a.POSIX"))) }, atMost(2)},
	{"fig8-cam-12ssd", "fig8", "✅", "derived", "12 SSDs at 4 KiB reach ≈20 GB/s (PCIe-limited)",
		valueOf("fig8a.12.CAM"), within(17, 22)},
	{"fig8-gran-rises", "fig8", "✅", "emergent", "throughput grows with access size (largest over smallest granule)",
		func(v vals) []float64 { return nums(lastOverFirst(v.series("fig8b.CAM"))) }, above(1)},
	{"fig8-write-below-read", "fig8", "✅", "derived", "writes below reads (CAM, 12 SSDs, 4 KiB)",
		ratioOf("fig8c.12.CAM", "fig8a.12.CAM"), below(1)},
	{"fig9-speedup", "fig9", "✅", "emergent", "CAM is consistently faster than GIDS, up to 1.84×",
		func(v vals) []float64 {
			return append(v.each("fig9.Paper100M/*.speedup", gnnModels...), v.each("fig9.IGB-full/*.speedup", gnnModels...)...)
		}, within(1.0, 2.05)},
	{"fig9-igb-gains-more", "fig9", "✅", "emergent", "IGB-full speedups exceed Paper100M's (mean over the three models)",
		func(v vals) []float64 {
			return nums(mean(v.each("fig9.IGB-full/*.speedup", gnnModels...)) / mean(v.each("fig9.Paper100M/*.speedup", gnnModels...)))
		}, above(1)},
	{"fig10a-posix-slower", "fig10a", "✅", "emergent", "CAM beats POSIX (POSIX time over CAM time, every size)",
		func(v vals) []float64 { return ratios(v.series("fig10a.POSIX"), v.series("fig10a.CAM")) }, above(1)},
	{"fig10a-cam-spdk", "fig10a", "partial", "emergent", "CAM ≈ SPDK (SPDK time over CAM time, every size)",
		func(v vals) []float64 { return ratios(v.series("fig10a.SPDK"), v.series("fig10a.CAM")) }, within(0.6, 1.8)},
	{"fig10bc-order", "fig10bc", "✅", "emergent", "GEMM read throughput CAM > BaM > GDS",
		func(v vals) []float64 {
			return ratios(v.each("fig10bc.*.GB/s", "CAM", "BaM"), v.each("fig10bc.*.GB/s", "BaM", "GDS"))
		}, above(1)},
	{"fig10bc-gds", "fig10bc", "✅", "derived", "GDS ≈ 0.8 GB/s",
		valueOf("fig10bc.GDS.GB/s"), atMost(2)},
	{"fig11-coincide", "fig11", "✅", "emergent", "the synchronous-feeling API loses nothing (CAM-Sync over CAM-Async, every SSD count)",
		func(v vals) []float64 { return ratios(v.series("fig11.CAM-Sync"), v.series("fig11.CAM-Async")) }, within(0.9, 1.12)},
	{"fig12-2ssd", "fig12", "✅", "derived", "2 SSDs per thread are lossless (% of the one-SSD-per-thread read rate)",
		valueOf("fig12.2.read % of 1/thread"), atLeast(92)},
	{"fig12-4ssd", "fig12", "✅", "derived", "4 SSDs per thread deliver ≈75 % (% of the one-SSD-per-thread read rate)",
		valueOf("fig12.4.read % of 1/thread"), within(60, 88)},
	{"fig13-instructions", "fig13", "✅", "derived", "CAM and SPDK need fewer instructions than libaio (over libaio's, reads and writes)",
		func(v vals) []float64 { return overLibaio(v, "instructions") }, below(1)},
	{"fig13-cycles", "fig13", "✅", "derived", "CAM and SPDK need far fewer cycles than libaio (over libaio's, reads and writes)",
		func(v vals) []float64 { return overLibaio(v, "cycles") }, below(0.5)},
	{"fig13-write-costs-more", "fig13", "✅", "emergent", "writes cost more than reads (CAM write over read instructions)",
		ratioOf("fig13.CAM/Write.instructions", "fig13.CAM/Read.instructions"), above(1)},
	{"fig14-cam", "fig14", "✅", "emergent", "CAM's direct data plane costs ≈0 DRAM bandwidth (DRAM/SSD, reads and writes)",
		func(v vals) []float64 { return v.each("fig14.CAM/*.DRAM/SSD ratio", "Read", "Write") }, atMost(0.1)},
	{"fig14-spdk", "fig14", "✅", "emergent", "staging costs ≈2× the SSD rate in DRAM bandwidth (SPDK DRAM/SSD, reads and writes)",
		func(v vals) []float64 { return v.each("fig14.SPDK/*.DRAM/SSD ratio", "Read", "Write") }, within(1.7, 2.3)},
	{"fig15-cam", "fig15", "✅", "emergent", "CAM is unaffected by 2 memory channels (loss %, reads and writes)",
		func(v vals) []float64 { return v.each("fig15.CAM/*.loss %", "Read", "Write") }, atMost(5)},
	{"fig15-spdk", "fig15", "✅", "derived", "SPDK throughput drops when DRAM cannot carry 2× the SSD rate (read loss %)",
		valueOf("fig15.SPDK/Read.loss %"), atLeast(10)},
	{"fig16-spdk-4k", "fig16", "✅", "derived", "staged SPDK at 4 KiB ⇒ 1.3 GB/s",
		valueOf("fig16.4096.SPDK"), atMost(2)},
	{"fig16-collapse", "fig16", "✅", "derived", "staged SPDK at 4 KiB is 93.5 % below CAM (fraction below)",
		func(v vals) []float64 { return nums(1 - v.ratio("fig16.4096.SPDK", "fig16.4096.CAM")) }, atLeast(0.85)},
	{"fig16-recovers", "fig16", "✅", "derived", "SPDK recovers at very large granularity (over CAM, largest granule)",
		func(v vals) []float64 { return nums(last(v.series("fig16.SPDK")) / last(v.series("fig16.CAM"))) }, atLeast(0.6)},
	{"abl-ftl-wa", "abl-ftl", "✅", "emergent", "write amplification grows with utilization (90 % over 25 %)",
		ratioOf("abl-ftl.0.9.write amplification", "abl-ftl.0.25.write amplification"), above(1)},
	{"abl-cache-hits", "abl-cache", "✅", "emergent", "BaM's cache hit rate grows with skew (zipf 0.99 over uniform)",
		ratioOf("abl-cache.zipf 0.99.cache hit rate", "abl-cache.uniform.cache hit rate"), above(1)},
	{"abl-cache-helps", "abl-cache", "✅", "emergent", "the cache lifts BaM's skewed-read throughput (cached over plain, zipf 0.99)",
		ratioOf("abl-cache.zipf 0.99.BaM+cache GB/s", "abl-cache.zipf 0.99.BaM GB/s"), above(1)},
	{"abl-multigpu-aggregate", "abl-multigpu", "✅", "emergent", "1/2/4 GPUs hold the array's aggregate rate (over one GPU's)",
		func(v vals) []float64 {
			return ratios(v.each("abl-multigpu.*.aggregate GB/s", "1", "2", "4"), v.each("abl-multigpu.*.aggregate GB/s", "1", "1", "1"))
		}, within(0.9, 1.15)},
	{"abl-multigpu-fair", "abl-multigpu", "✅", "emergent", "the per-GPU split is fair (min/max)",
		func(v vals) []float64 { return v.each("abl-multigpu.*.fairness (min/max)", "1", "2", "4") }, atLeast(0.95)},
	{"abl-fanin-bytes", "abl-fanin", "✅", "emergent", "16-way merging moves 2.5× less data than pairwise (2-way GiB over 16-way)",
		ratioOf("abl-fanin.2.GiB moved", "abl-fanin.16.GiB moved"), atLeast(2)},
	{"abl-fanin-time", "abl-fanin", "✅", "emergent", "16-way merging finishes ~2.4× faster than pairwise (2-way time over 16-way)",
		ratioOf("abl-fanin.2.time ms", "abl-fanin.16.time ms"), atLeast(2)},
	{"abl-dyncores-time", "abl-dyncores", "✅", "emergent", "dynamic core adjustment tracks fixed-max completion time within 6 % (over fixed 4)",
		ratioOf("abl-dyncores.dynamic N/4..N/2.elapsed ms", "abl-dyncores.fixed 4.elapsed ms"), atMost(1.08)},
	{"abl-dyncores-cores", "abl-dyncores", "✅", "emergent", "dynamic core adjustment consumes ~38 % fewer core-milliseconds (over fixed 4)",
		ratioOf("abl-dyncores.dynamic N/4..N/2.core-ms consumed", "abl-dyncores.fixed 4.core-ms consumed"), atMost(0.7)},
	{"kv-step-p99", "kv", "✅", "emergent", "CAM hides fills behind decode: its step p99 is far below BaM's (BaM's over CAM's)",
		ratioOf("kv.BaM.step p99 us", "kv.CAM.step p99 us"), atLeast(4)},
	{"kv-ttft", "kv", "✅", "emergent", "CAM's time to first token is below BaM's (CAM's over BaM's)",
		ratioOf("kv.CAM.TTFT ms", "kv.BaM.TTFT ms"), below(1)},
	{"kv-tokens", "kv", "partial", "emergent", "CAM serves ~5.7× BaM's token rate at full scale; at quick scale the two are at parity (CAM over BaM)",
		ratioOf("kv.CAM.tok/s", "kv.BaM.tok/s"), within(0.9, 1.1)},
}

var (
	gnnModels    = []string{"GCN", "GAT", "GRAPHSAGE"}
	kernelStacks = []string{"POSIX", "libaio", "io_uring int", "io_uring poll"}
)

type claim struct {
	id, exp, status, prov, paper string
	got                          func(v vals) []float64
	want                         bound
}

// vals reads one result's named values for a claim; an unknown name fails it.
type vals struct {
	t *testing.T
	r *Result
}

func (v vals) at(name string) float64 {
	v.t.Helper()
	x, err := v.r.Value(name)
	if err != nil {
		v.t.Fatal(err)
	}
	return x
}

// each reads the values named by pattern with its "*" replaced by each of xs.
func (v vals) each(pattern string, xs ...string) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = v.at(strings.Replace(pattern, "*", x, 1))
	}
	return out
}

func (v vals) series(name string) []float64 {
	v.t.Helper()
	y, err := v.r.Series(name)
	if err != nil {
		v.t.Fatal(err)
	}
	return y
}

func (v vals) ratio(num, den string) float64 { return v.at(num) / v.at(den) }

func nums(x ...float64) []float64 { return x }

// valueOf measures one named value; ratioOf one named value over another.
func valueOf(name string) func(vals) []float64 {
	return func(v vals) []float64 { return nums(v.at(name)) }
}

func ratioOf(num, den string) func(vals) []float64 {
	return func(v vals) []float64 { return nums(v.ratio(num, den)) }
}

func ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}

func last(y []float64) float64          { return y[len(y)-1] }
func lastOverFirst(y []float64) float64 { return last(y) / y[0] }

func mean(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// overLibaio is CAM's and SPDK's col in fig13 over libaio's, reads then writes.
func overLibaio(v vals, col string) []float64 {
	return ratios(v.each("fig13.*."+col, "CAM/Read", "SPDK/Read", "CAM/Write", "SPDK/Write"),
		v.each("fig13.libaio/*."+col, "Read", "Read", "Write", "Write"))
}

// bound is the interval every measured number of a claim must fall in;
// open excludes its ends.
type bound struct {
	lo, hi float64
	open   bool
}

func atLeast(x float64) bound     { return bound{lo: x, hi: math.Inf(1)} }
func above(x float64) bound       { return bound{lo: x, hi: math.Inf(1), open: true} }
func atMost(x float64) bound      { return bound{lo: math.Inf(-1), hi: x} }
func below(x float64) bound       { return bound{lo: math.Inf(-1), hi: x, open: true} }
func within(lo, hi float64) bound { return bound{lo: lo, hi: hi} }

func (b bound) holds(x float64) bool {
	return b.lo < x && x < b.hi || !b.open && (x == b.lo || x == b.hi)
}

func (b bound) String() string {
	if b.open {
		return fmt.Sprintf("in (%g, %g)", b.lo, b.hi)
	}
	return fmt.Sprintf("in [%g, %g]", b.lo, b.hi)
}

// quick holds the quick-scale result of every experiment a claim reads.
var quick map[string]*Result

// quickResults runs the claims' experiments once per test binary, four at a
// time.
func quickResults(t *testing.T) map[string]*Result {
	t.Helper()
	if quick != nil {
		return quick
	}
	var todo []Experiment
	for i, c := range claims {
		if e, ok := Get(c.exp); !ok {
			t.Fatalf("claim %s: experiment %s is not registered", c.id, c.exp)
		} else if i == 0 || claims[i-1].exp != c.exp {
			todo = append(todo, e)
		}
	}
	res, err := RunAll(todo, RunConfig{Quick: true}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	quick = map[string]*Result{}
	for i, r := range res {
		quick[todo[i].ID] = r
	}
	return quick
}

// checkClaims runs the claims on exp ("" for every claim), one subtest each,
// logging one line per claim: id, status, measured numbers and bound.
func checkClaims(t *testing.T, exp string) {
	res := quickResults(t)
	for _, c := range claims {
		if exp != "" && c.exp != exp {
			continue
		}
		t.Run(c.id, func(t *testing.T) {
			got := c.got(vals{t, res[c.exp]})
			ok := len(got) > 0
			for _, x := range got {
				ok = ok && c.want.holds(x)
			}
			line := fmt.Sprintf("%-24s %-7s %-8s %.4g, want %s", c.id, c.status, c.prov, got, c.want)
			if !ok {
				t.Errorf("%s FAILS; paper: %s", line, c.paper)
				return
			}
			t.Log(line)
		})
	}
}

// TestPaperShapes checks every claim at quick scale.
func TestPaperShapes(t *testing.T) { checkClaims(t, "") }

// The per-figure entry points: each checks its experiment's claims.
func TestFig1Breakdown(t *testing.T)                 { checkClaims(t, "fig1") }
func TestFig2Shapes(t *testing.T)                    { checkClaims(t, "fig2") }
func TestFig3FSPlusIOMap(t *testing.T)               { checkClaims(t, "fig3") }
func TestFig4Saturation(t *testing.T)                { checkClaims(t, "fig4") }
func TestFig8Shapes(t *testing.T)                    { checkClaims(t, "fig8") }
func TestFig9Speedups(t *testing.T)                  { checkClaims(t, "fig9") }
func TestFig10aOrdering(t *testing.T)                { checkClaims(t, "fig10a") }
func TestFig10bcOrdering(t *testing.T)               { checkClaims(t, "fig10bc") }
func TestFig11Coincide(t *testing.T)                 { checkClaims(t, "fig11") }
func TestFig12Staircase(t *testing.T)                { checkClaims(t, "fig12") }
func TestFig13CAMBelowLibaio(t *testing.T)           { checkClaims(t, "fig13") }
func TestFig14Ratios(t *testing.T)                   { checkClaims(t, "fig14") }
func TestFig15OnlySPDKDegrades(t *testing.T)         { checkClaims(t, "fig15") }
func TestFig16Collapse(t *testing.T)                 { checkClaims(t, "fig16") }
func TestAblFTLWriteAmplificationShape(t *testing.T) { checkClaims(t, "abl-ftl") }
func TestAblCacheSkewShape(t *testing.T)             { checkClaims(t, "abl-cache") }
func TestAblMultiGPUFairAggregate(t *testing.T)      { checkClaims(t, "abl-multigpu") }

// Value and Series read a result's numbers by name; a miss lists the names.
func TestValueNames(t *testing.T) {
	tb := metrics.NewTable("t", "", "system", "op", "GB/s", "note")
	tb.AddRow("CAM", "Read", 19.9, "ok")
	fg := metrics.NewFigure("f", "", "SSDs", "GB/s")
	fg.NewSeries("CAM").Add(12, 19.9)
	r := &Result{ID: "x", Tables: []*metrics.Table{tb}, Figs: []*metrics.Figure{fg}}
	a, errA := r.Value("t.CAM/Read.GB/s")
	b, errB := r.Value("f.12.CAM")
	y, errY := r.Series("f.CAM")
	if a != 19.9 || b != 19.9 || len(y) != 1 || errA != nil || errB != nil || errY != nil {
		t.Errorf("t.CAM/Read.GB/s = %v, %v; f.12.CAM = %v, %v; f.CAM = %v, %v", a, errA, b, errB, y, errY)
	}
	if _, err := r.Value("t.CAM/Write.GB/s"); err == nil || !strings.Contains(err.Error(), `"f.12.CAM"`) {
		t.Errorf("unknown name: err = %v, want the names that exist", err)
	}
	tb.AddRow("CAM", "Read", 20.0)
	if _, err := r.Value("t.CAM/Read.GB/s"); err == nil {
		t.Error("a name two values share reads as one of them")
	}
}
