package cam

import (
	"testing"

	"camsim/internal/sim"
)

// TestBatchAllocsIndependentOfSize is the allocation ceiling of the CAM
// control plane: once request pools and rings have reached their high-water
// marks, a Prefetch + Synchronize costs the host under one object whatever
// the batch holds — the Batch is carved 64 to a slab with its signal inside
// it and the one waiter sits in the signal's inline slot — and nothing per
// request. A per-request allocation in dispatchBatch, the spdk.Batch it
// fills, or anything under them shows as a count that grows with the batch.
func TestBatchAllocsIndependentOfSize(t *testing.T) {
	const ceiling = 1
	var got [2]float64
	for i, n := range []int{256, 2048} {
		r := newRig(3, DefaultConfig(3))
		dst := r.m.Alloc("dst", int64(n)*4096)
		blocks := seqBlocks(n)
		r.e.Go("gpu", func(p *sim.Proc) {
			batch := func() { r.m.Synchronize(p, r.m.Prefetch(p, blocks, dst, 0)) }
			for w := 0; w < 4; w++ {
				batch()
			}
			got[i] = testing.AllocsPerRun(128, batch) // two slabs' worth
		})
		r.e.Run()
		if st := r.m.Stats(); st.Requests != uint64(133*n) || st.FailedRequests != 0 {
			t.Fatalf("batches of %d: %d requests, %d failed", n, st.Requests, st.FailedRequests)
		}
		r.e.Shutdown()
	}
	if got[0] != got[1] || got[0] > ceiling {
		t.Fatalf("%v allocs per batch of 256, %v per batch of 2048; want equal and at most %d", got[0], got[1], ceiling)
	}
}
