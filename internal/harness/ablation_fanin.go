package harness

import (
	"camsim/internal/calib"
	"camsim/internal/metrics"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

func init() {
	register("abl-fanin", "Ablation: mergesort fan-in vs passes and bytes moved", runAblFanin)
}

// runAblFanin sweeps the external-merge fan-in at fixed data size: higher
// fan-in means fewer passes over the SSDs (less data moved) at the cost of
// more heap work per produced key.
func runAblFanin(cfg RunConfig) *Result {
	r := &Result{ID: "abl-fanin", Title: "Mergesort fan-in sweep (CAM backend, 12 SSDs)"}
	keys := int64(4 << 20)
	if cfg.Quick {
		keys = 1 << 20
	}
	t := metrics.NewTable("abl-fanin", "fan-in vs merge passes, bytes moved, and time",
		"fan-in", "passes", "GiB moved", "time ms")
	for _, fanin := range []int{2, 4, 8, 16} {
		scfg := sortx.Config{
			NumInts:    keys,
			RunBytes:   keys / 4, // 16 runs
			ChunkBytes: 128 << 10,
			SortRate:   calib.SortRate(),
			MergeRate:  calib.MergeRate(),
			Fanin:      fanin,
		}
		env := cfg.newEnv(platform.Options{SSDs: 12})
		b := xfer.NewCAM(env, 65536, nil)
		s := sortx.New(env, b, scfg)
		var st sortx.Stats
		env.E.Go("sort", func(p *sim.Proc) {
			s.Fill(p, 5)
			st = s.Sort(p)
			if err := s.Verify(p); err != nil {
				panic(err)
			}
		})
		runEnv(cfg, env)
		t.AddRow(fanin, st.Passes, float64(st.BytesMoved)/float64(1<<30), st.Elapsed.Seconds()*1000)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"higher fan-in removes whole SSD passes; with 16 runs, 16-way finishes the merge in one pass")
	return r
}
