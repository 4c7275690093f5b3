package harness

import (
	"fmt"

	"camsim/internal/cam"
	"camsim/internal/fault"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/workload"
)

func init() {
	register("abl-faults", "Ablation: injected faults and end-to-end recovery (extension beyond the paper)", runAblFaults)
}

// runAblFaults drives a CAM prefetch workload under escalating fault
// schedules — media errors, silent drops, latency spikes, whole-device
// drop-out — and reports what was injected against what the recovery
// machinery did about it. Each scenario pins its own plan, which the run's
// -faults plan never replaces, so the table is identical with or without it.
func runAblFaults(cfg RunConfig) *Result {
	r := &Result{ID: "abl-faults", Title: "Fault injection and recovery (CAM, 4 SSDs, 4KB reads)"}
	batches := 32
	if cfg.Quick {
		batches = 12
	}
	const ssds, perBatch = 4, 512

	type point struct {
		inj  fault.Stats
		rec  spdk.RecoveryStats
		cam  cam.Stats
		gbps float64
	}
	runPlan := func(plan *fault.Plan) point {
		ccfg := cam.DefaultConfig(ssds)
		ccfg.MaxBatch = perBatch
		ccfg.MaxOutstanding = 4
		l := load{nvme.OpRead, workload.NewUniform(5, 1<<20), perBatch, batches, 1}
		v, env, mgr := camRun(cfg, platform.Options{SSDs: ssds, Faults: plan}, ccfg, l)
		return point{
			inj:  env.FaultStats(),
			rec:  mgr.Driver().Recovery(),
			cam:  mgr.Stats(),
			gbps: v / 1e9,
		}
	}

	scenarios := []struct {
		name string
		plan *fault.Plan
	}{
		{"off", fault.NewPlan(5)},
		{"err 1e-3", func() *fault.Plan {
			p := fault.NewPlan(5)
			p.ErrRate = 1e-3
			return p
		}()},
		{"err+drop+slow", func() *fault.Plan {
			p := fault.NewPlan(5)
			p.ErrRate, p.DropRate, p.SlowRate = 5e-3, 1e-3, 5e-3
			return p
		}()},
		{"dev1 dies at 2ms", func() *fault.Plan {
			p := fault.NewPlan(5)
			p.ErrRate = 1e-3
			p.FailDev, p.FailAt = 1, 2*sim.Millisecond
			return p
		}()},
	}

	t := metrics.NewTable("abl-faults", fmt.Sprintf("injected faults vs recovery (%d batches x %d blocks)", batches, perBatch),
		"scenario", "GB/s", "inj err", "inj drop", "inj slow", "dead drops",
		"timeouts", "retries", "recovered", "failed reqs", "failed batches", "dev failures")
	var inj fault.Stats
	var rec spdk.RecoveryStats
	for _, sc := range scenarios {
		pt := runPlan(sc.plan)
		t.AddRow(sc.name, pt.gbps,
			pt.inj.Errors, pt.inj.Drops, pt.inj.Slows, pt.inj.DeadDrops,
			pt.rec.Timeouts, pt.rec.Retries, pt.rec.Recovered,
			pt.rec.FailedRequests, pt.cam.FailedBatches, pt.rec.DeviceFailures)
		inj.Add(pt.inj)
		rec.Timeouts += pt.rec.Timeouts
		rec.Retries += pt.rec.Retries
		rec.Recovered += pt.rec.Recovered
		rec.FailedRequests += pt.rec.FailedRequests
		rec.FastFails += pt.rec.FastFails
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		fmt.Sprintf("totals: err=%d drop=%d slow=%d dead=%d timeout=%d retry=%d recovered=%d failed=%d fastfail=%d",
			inj.Errors, inj.Drops, inj.Slows, inj.DeadDrops,
			rec.Timeouts, rec.Retries, rec.Recovered, rec.FailedRequests, rec.FastFails),
		"every batch completes — partial failure surfaces as per-block errors and FailedBatches, never a hang",
		"dev drop-out: consecutive timeouts trip FailThreshold, then queued and future commands fail fast with dev-failed status")
	return r
}
