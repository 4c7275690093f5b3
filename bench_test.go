package camsim

import (
	"os"
	"strconv"
	"testing"

	"camsim/internal/harness"
	"camsim/internal/sim"
)

// benchCfg picks quick workloads unless CAMSIM_FULL=1 requests paper scale.
// CAMSIM_SHARDS sets the shard worker count for clustered experiments
// (make bench exports it; unset or 1 = serial windows, same output).
func benchCfg() harness.RunConfig {
	shards, _ := strconv.Atoi(os.Getenv("CAMSIM_SHARDS"))
	return harness.RunConfig{Quick: os.Getenv("CAMSIM_FULL") != "1", Shards: shards}
}

// runExperiment executes one registered reproduction per benchmark
// iteration and logs its rendered output once, so `go test -bench` both
// times the experiment and emits the paper's rows/series. It also reports
// sim-ns/op — virtual nanoseconds simulated per iteration — so the bench
// history tracks the engine's simulation rate (sim-ns/op ÷ ns/op), not
// just wall time that shifts when workloads are re-scaled — and the exact
// event-queue cost behind that time: events dispatched per iteration and the
// share of pushes each queue lane took (deterministic, so a change in them
// is a change in the model or the queue, never noise).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var out string
	var simTotal int64
	var ev sim.QueueStats
	for i := 0; i < b.N; i++ {
		r := e.Run(benchCfg())
		simTotal += int64(r.SimElapsed)
		ev.Add(r.Events)
		out = r.String()
	}
	b.ReportMetric(float64(simTotal)/float64(b.N), "sim-ns/op")
	if pushes := float64(ev.Pushes()); pushes > 0 {
		b.ReportMetric(float64(ev.Dispatched)/float64(b.N), "events/op")
		b.ReportMetric(float64(ev.NowPushes)/pushes, "now-share")
		b.ReportMetric(float64(ev.WheelPushes)/pushes, "wheel-share")
		b.ReportMetric(float64(ev.OverflowPushes)/pushes, "overflow-share")
	}
	if out != "" {
		b.Log("\n" + out)
	}
}

// Figure 1: GNN training time breakdown of the BaM-based GIDS baseline.
func BenchmarkFig1_GIDSBreakdown(b *testing.B) { runExperiment(b, "fig1") }

// Figure 2: 4 KB random read/write throughput of the kernel I/O stacks.
func BenchmarkFig2_KernelStacks(b *testing.B) { runExperiment(b, "fig2") }

// Figure 3: per-layer I/O time breakdown (User / fs / io_map / Block I/O).
func BenchmarkFig3_LayerBreakdown(b *testing.B) { runExperiment(b, "fig3") }

// Figure 4: GPU SM utilization BaM needs to saturate N SSDs.
func BenchmarkFig4_BaMSMUtil(b *testing.B) { runExperiment(b, "fig4") }

// Figure 8: I/O throughput of CAM vs BaM, SPDK, POSIX across SSD counts
// and access granularities (four sub-figures).
func BenchmarkFig8_Throughput(b *testing.B) { runExperiment(b, "fig8") }

// Figure 9: GNN training epoch time, CAM vs GIDS, three models × two
// datasets.
func BenchmarkFig9_GNNEpoch(b *testing.B) { runExperiment(b, "fig9") }

// Figure 10a: out-of-core mergesort time, CAM vs SPDK vs POSIX.
func BenchmarkFig10a_Sort(b *testing.B) { runExperiment(b, "fig10a") }

// Figure 10b,c: out-of-core GEMM throughput and execution time, CAM vs
// BaM vs GDS vs SPDK.
func BenchmarkFig10bc_GEMM(b *testing.B) { runExperiment(b, "fig10bc") }

// Figure 11: the synchronous-feeling CAM API vs raw asynchronous APIs.
func BenchmarkFig11_SyncVsAsync(b *testing.B) { runExperiment(b, "fig11") }

// Figure 12: throughput with one CPU thread controlling multiple SSDs.
func BenchmarkFig12_ThreadScaling(b *testing.B) { runExperiment(b, "fig12") }

// Figure 13: CPU instructions and cycles per request, CAM vs SPDK vs
// libaio.
func BenchmarkFig13_CPUCost(b *testing.B) { runExperiment(b, "fig13") }

// Figure 14: CPU memory bandwidth consumed per byte of SSD bandwidth.
func BenchmarkFig14_MemBandwidth(b *testing.B) { runExperiment(b, "fig14") }

// Figure 15: throughput under 2 vs 16 DRAM channels.
func BenchmarkFig15_MemChannels(b *testing.B) { runExperiment(b, "fig15") }

// Figure 16: access-granularity sweep with a non-contiguous destination.
func BenchmarkFig16_Granularity(b *testing.B) { runExperiment(b, "fig16") }

// Ablation: the sharded DES coordinator — a multi-host ring pipeline run
// through conservative lookahead windows (honors CAMSIM_SHARDS).
func BenchmarkAblShard_Cluster(b *testing.B) { runExperiment(b, "abl-shard") }

// Extension: SSD-backed LLM KV-cache serving — multi-session decode with
// block spill/fill through each management scheme. The only benchmark that
// writes to the array under load, so it tracks the scatter path too.
func BenchmarkKV_Serving(b *testing.B) { runExperiment(b, "kv") }

// Table I: architectural design comparison.
func BenchmarkTableI_Architecture(b *testing.B) { runExperiment(b, "tab1") }

// Table II: the CAM software API surface.
func BenchmarkTableII_API(b *testing.B) { runExperiment(b, "tab2") }

// Table III: the (simulated) experimental platform.
func BenchmarkTableIII_Platform(b *testing.B) { runExperiment(b, "tab3") }

// Table IV: evaluation datasets.
func BenchmarkTableIV_Datasets(b *testing.B) { runExperiment(b, "tab4") }

// Table V: GNN experiment configuration.
func BenchmarkTableV_GNNConfig(b *testing.B) { runExperiment(b, "tab5") }

// Table VI: lines of application code per SSD-management scheme, counted
// from this repository's sources with go/parser.
func BenchmarkTableVI_LinesOfCode(b *testing.B) { runExperiment(b, "tab6") }
