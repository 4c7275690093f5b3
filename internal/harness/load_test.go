package harness

import (
	"fmt"
	"testing"

	"camsim/internal/cam"
	"camsim/internal/nvme"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/workload"
)

// TestLoadMovesEveryBlock: the loop every throughput point shares reaches
// the devices with exactly batches × perBatch commands on CAM (at one and at
// three batches in flight, every one complete when the loop returns) and on
// BaM, in both directions; CAM dispatches one batch per batch; and the SPDK
// window never has more than depth requests on a device.
func TestLoadMovesEveryBlock(t *testing.T) {
	const ssds, perBatch, batches = 2, 64, 5
	cfg := RunConfig{Quick: true}
	devCmds := func(env *platform.Env, op nvme.Opcode) uint64 {
		var n uint64
		for _, d := range env.Devs {
			if st := d.Stats(); op == nvme.OpRead {
				n += st.ReadCmds
			} else {
				n += st.WriteCmds
			}
		}
		return n
	}
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		l := load{op, workload.NewUniform(1, 1<<16), perBatch, batches, 1}
		for _, depth := range []int{1, 3} {
			t.Run(fmt.Sprintf("CAM/%s/depth%d", op, depth), func(t *testing.T) {
				env := platform.New(platform.Options{SSDs: ssds})
				defer env.E.Shutdown()
				ccfg := cam.DefaultConfig(ssds)
				ccfg.MaxBatch = perBatch
				ccfg.MaxOutstanding = depth + 1
				mgr := cam.New(env.E, ccfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
				buf := mgr.Alloc("b", perBatch*4096*int64(depth))
				l.depth = depth
				var done uint64 // device commands completed when the loop returns
				env.E.Go("t", func(p *sim.Proc) {
					l.onCAM(p, mgr, buf)
					done = devCmds(env, op)
				})
				runEnv(cfg, env)
				if done != perBatch*batches {
					t.Errorf("devices had completed %d %s commands when the loop returned, want %d", done, op, perBatch*batches)
				}
				if got := mgr.Stats().Batches; got != batches {
					t.Errorf("CAM dispatched %d batches, want %d", got, batches)
				}
			})
		}
		t.Run(fmt.Sprintf("BaM/%s", op), func(t *testing.T) {
			env := platform.New(platform.Options{SSDs: ssds})
			defer env.E.Shutdown()
			bamRun(cfg, env, newBaM(env).NewArray(4096), 4096, l)
			if got := devCmds(env, op); got != perBatch*batches {
				t.Errorf("devices saw %d %s commands, want %d", got, op, perBatch*batches)
			}
		})
	}
	t.Run("SPDK window", func(t *testing.T) {
		const reqs, depth = 100, 8
		env := platform.New(platform.Options{SSDs: 1})
		defer env.E.Shutdown()
		d := newSPDK(env)
		buf := env.HM.Alloc("b", 4096)
		l := load{op: nvme.OpWrite, gen: workload.NewUniform(1, 1<<10), perBatch: 1, batches: reqs, depth: depth}
		env.E.Go("w", func(p *sim.Proc) { l.onSPDK(p, d, 1, 4096, buf.Addr) })
		runEnv(cfg, env)
		st := env.Devs[0].Stats()
		if st.WriteCmds != reqs {
			t.Errorf("device saw %d write commands, want %d", st.WriteCmds, reqs)
		}
		if st.MaxInFlight < 2 || st.MaxInFlight > depth {
			t.Errorf("device had up to %d commands in flight, want 2..%d", st.MaxInFlight, depth)
		}
	})
}
