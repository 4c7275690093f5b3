package cam

import (
	"testing"

	"camsim/internal/sim"
)

// runPinnedRead drives the cam-read-4k shape at test scale: 12 SSDs, 16
// batches of 1024 random 4 KiB prefetches, 8 batches outstanding.
func runPinnedRead(tb testing.TB, batches int) (*rig, sim.Time) {
	const (
		ssds        = 12
		batchBlocks = 1024
		outstanding = 8
	)
	cfg := DefaultConfig(ssds)
	cfg.MaxBatch = batchBlocks
	cfg.MaxOutstanding = outstanding + 1
	r := newRig(ssds, cfg)
	buf := r.m.Alloc("pinned", outstanding*batchBlocks*cfg.BlockBytes)
	rng := sim.NewRNG(1)
	blocks := make([]uint64, batches*batchBlocks)
	for i := range blocks {
		blocks[i] = uint64(rng.Int63n(1 << 22))
	}
	r.e.Go("gpu", func(p *sim.Proc) {
		handles := make([]*Batch, batches)
		for b := 0; b < batches; b++ {
			off := int64(b%outstanding) * batchBlocks * cfg.BlockBytes
			handles[b] = r.m.Prefetch(p, blocks[b*batchBlocks:(b+1)*batchBlocks], buf, off)
			if b >= outstanding-1 {
				r.m.Synchronize(p, handles[b-outstanding+1])
			}
		}
		for b := max(0, batches-outstanding+1); b < batches; b++ {
			r.m.Synchronize(p, handles[b])
		}
	})
	end := r.e.Run()
	if st := r.m.Stats(); st.Requests != uint64(len(blocks)) || st.FailedRequests != 0 {
		tb.Fatalf("requests %d failed %d, want %d and 0", st.Requests, st.FailedRequests, len(blocks))
	}
	return r, end
}

// TestEventsPerIOPinned pins the event mix of the headline read path: the
// number of events dispatched and the final clock are the model's, so host
// optimisations of the spdk → nvme → ssd path must leave both untouched. The
// constants were recorded at 169899b (before the typed rings).
func TestEventsPerIOPinned(t *testing.T) {
	const (
		wantDispatched = 84512
		wantEnd        = sim.Time(3369055)
	)
	r, end := runPinnedRead(t, 16)
	defer r.e.Shutdown()
	qs := r.e.QueueStats()
	if qs.Dispatched != wantDispatched || end != wantEnd {
		t.Fatalf("dispatched %d events, clock %d ns; want %d and %d (%.2f events per I/O)",
			qs.Dispatched, int64(end), uint64(wantDispatched), int64(wantEnd),
			float64(qs.Dispatched)/float64(16*1024))
	}
}
