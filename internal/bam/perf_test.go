package bam

import (
	"testing"

	"camsim/internal/sim"
)

// TestGatherSteadyStateAllocatesNothing is the allocation ceiling of the
// BaM control plane: with the batch machines, CID rings,
// deadline queues and the sync sink's signal at their high-water marks, a
// synchronous Gather costs the host no object whatever the gather holds. A
// per-request allocation in the batch machine or the device pollers shows
// as a count that grows with the gather.
func TestGatherSteadyStateAllocatesNothing(t *testing.T) {
	for _, n := range []int{256, 2048} {
		r := newRig(3, DefaultConfig())
		arr := r.sys.NewArray(4096)
		dst := r.g.Alloc("dst", int64(n)*4096)
		blocks := make([]uint64, n)
		for j := range blocks {
			blocks[j] = uint64(j)
		}
		r.e.Go("kernel", func(p *sim.Proc) {
			gather := func() {
				if errs := arr.Gather(p, blocks, dst, 0); errs != 0 {
					t.Errorf("gather of %d: %d blocks failed", n, errs)
				}
			}
			for w := 0; w < 4; w++ {
				gather()
			}
			if a := testing.AllocsPerRun(10, gather); a != 0 {
				t.Errorf("%v allocs per steady-state gather of %d, want 0", a, n)
			}
		})
		r.e.Run()
		var reads uint64
		for _, d := range r.devs {
			reads += d.Stats().ReadCmds
		}
		if reads != uint64(15*n) {
			t.Errorf("gathers of %d: %d read commands reached the devices, want %d", n, reads, 15*n)
		}
		r.e.Shutdown()
	}
}
