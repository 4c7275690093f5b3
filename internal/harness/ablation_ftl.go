package harness

import (
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/ssd"
	"camsim/internal/workload"
)

func init() {
	register("abl-ftl", "Ablation: FTL garbage collection under sustained random writes", runAblFTL)
}

// runAblFTL overwrites a small namespace far beyond its size at different
// logical utilizations and reports write amplification, erases, and — with
// GC charging enabled — the throughput cliff the paper's steady-state
// write numbers already embody.
func runAblFTL(cfg RunConfig) *Result {
	r := &Result{ID: "abl-ftl", Title: "FTL write amplification and the random-write cliff"}
	writes := 24000
	if cfg.Quick {
		writes = 8000
	}

	type point struct {
		utilization float64
		wa          float64
		erases      int64
		gbpsPlain   float64
		gbpsCharged float64
	}
	runAt := func(util float64) point {
		measure := func(charge bool) (float64, ssd.FTLStats) {
			env := cfg.newEnv(platform.Options{SSDs: 1, SSD: func() ssd.Config {
				c := ssd.DefaultConfig()
				c.CapacityBytes = 8 << 20 // 2 Ki logical pages: GC-active at this write volume
				c.OverProvision = 0.08
				c.ChargeGC = charge
				return c
			}()})
			d := newSPDK(env)
			buf := env.HM.Alloc("b", 4096)
			hot := uint64(float64(2<<10) * util) // hot pages
			l := load{op: nvme.OpWrite, gen: workload.NewUniform(11, hot), perBatch: 1, batches: writes, depth: 64}
			env.E.Go("w", func(p *sim.Proc) { l.onSPDK(p, d, 1, 4096, buf.Addr) })
			end := runEnv(cfg, env)
			return float64(writes) * 4096 / end.Seconds(), env.Devs[0].FTL().Stats()
		}
		plain, st := measure(false)
		charged, _ := measure(true)
		return point{
			utilization: util,
			wa:          st.WriteAmplification(),
			erases:      st.Erases,
			gbpsPlain:   plain / 1e9,
			gbpsCharged: charged / 1e9,
		}
	}

	t := metrics.NewTable("abl-ftl", "FTL behavior vs logical utilization (1 SSD, 4KB random writes)",
		"hot-set fraction", "write amplification", "erases", "GB/s (GC uncharged)", "GB/s (GC charged)")
	for _, u := range []float64{0.25, 0.6, 0.9} {
		p := runAt(u)
		t.AddRow(p.utilization, p.wa, p.erases, p.gbpsPlain, p.gbpsCharged)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"write amplification rises with utilization; charging GC time exposes the classic random-write cliff",
		"the default (uncharged) mode matches the paper, whose calibrated write IOPS already embody steady-state GC")
	return r
}
