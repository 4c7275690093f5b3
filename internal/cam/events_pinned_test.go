package cam

import (
	"fmt"
	"sort"
	"testing"

	"camsim/internal/sim"
	"camsim/internal/spdk"
)

// runPinnedRead drives the cam-read-4k shape at test scale: 12 SSDs, 16
// batches of 1024 random 4 KiB prefetches, 8 batches outstanding. It also
// counts the dispatched events by callback type.
func runPinnedRead(tb testing.TB, batches int) (*rig, sim.Time, map[string]int) {
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
	kinds := map[string]int{}
	r.e.OnDispatch(func(_ sim.Time, _ uint64, cb sim.Callback) { kinds[fmt.Sprintf("%T", cb)]++ })
	end := r.e.Run()
	if st := r.m.Stats(); st.Requests != uint64(len(blocks)) || st.FailedRequests != 0 {
		tb.Fatalf("requests %d failed %d, want %d and 0", st.Requests, st.FailedRequests, len(blocks))
	}
	return r, end, kinds
}

// logEventMix logs events per I/O by callback type, most frequent first.
func logEventMix(t *testing.T, kinds map[string]int, ios int) {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		return kinds[names[i]] > kinds[names[j]] || kinds[names[i]] == kinds[names[j]] && names[i] < names[j]
	})
	total := 0
	for _, k := range names {
		total += kinds[k]
		t.Logf("%-13s %-20s %6d events  %.3f per I/O", "cam-read-4k", k, kinds[k], float64(kinds[k])/float64(ios))
	}
	t.Logf("%-13s %-20s %6d events  %.3f per I/O", "cam-read-4k", "all", total, float64(total)/float64(ios))
}

// TestEventsPerIOPinned pins the event mix of the headline read path: the
// number of events dispatched and the final clock are the model's, so host
// optimisations of the spdk → nvme → ssd path must leave both untouched. The
// clock was recorded at 169899b (before the typed rings); the count when the
// SPDK reactor began paying its submit and complete costs once per run
// (84 512 before), which left the clock exactly where it was. make events
// prints the mix by callback type.
func TestEventsPerIOPinned(t *testing.T) {
	const (
		wantDispatched = 57884
		wantEnd        = sim.Time(3369055)
	)
	r, end, kinds := runPinnedRead(t, 16)
	defer r.e.Shutdown()
	logEventMix(t, kinds, 16*1024)
	qs := r.e.QueueStats()
	if qs.Dispatched != wantDispatched || end != wantEnd {
		t.Fatalf("dispatched %d events, clock %d ns; want %d and %d (%.2f events per I/O)",
			qs.Dispatched, int64(end), uint64(wantDispatched), int64(wantEnd),
			float64(qs.Dispatched)/float64(16*1024))
	}
}

// instantSink records, per batch, the latest instant among its commands'
// completions before handing each to the manager.
type instantSink struct {
	m    *Manager
	last map[*Batch]sim.Time
}

func (s *instantSink) RequestDone(r *spdk.Request) {
	b := r.Tag.(*Batch)
	s.last[b] = max(s.last[b], r.At)
	s.m.RequestDone(r)
}

// TestBatchFinishesAtItsLatestInstant: on the pinned shape's six reactors,
// each running ahead of the engine on its own timeline, the last command
// delivered to a batch need not carry its latest instant; the batch must
// still finish exactly at that latest instant, never before a command's
// completion.
func TestBatchFinishesAtItsLatestInstant(t *testing.T) {
	const ssds, batchBlocks, batches = 12, 256, 8
	cfg := DefaultConfig(ssds)
	cfg.MaxBatch = batchBlocks
	r := newRig(ssds, cfg)
	defer r.e.Shutdown()
	if n := r.m.ActiveCores(); n < 2 {
		t.Fatalf("%d reactors, want several", n)
	}
	sink := &instantSink{m: r.m, last: map[*Batch]sim.Time{}}
	r.m.sink = sink
	buf := r.m.Alloc("dst", batches*batchBlocks*cfg.BlockBytes)
	rng := sim.NewRNG(3)
	type done struct {
		last, finished sim.Time
	}
	var got []done
	r.e.Go("gpu", func(p *sim.Proc) {
		var hs []*Batch
		for b := 0; b < batches; b++ {
			blocks := make([]uint64, batchBlocks)
			for i := range blocks {
				blocks[i] = uint64(rng.Int63n(1 << 22))
			}
			hs = append(hs, r.m.Prefetch(p, blocks, buf, int64(b)*batchBlocks*cfg.BlockBytes))
		}
		for _, b := range hs {
			r.m.Synchronize(p, b)
			got = append(got, done{sink.last[b], b.completed - r.fab.MMIODelay()})
		}
	})
	r.e.Run()
	if len(got) != batches {
		t.Fatalf("%d batches finished, want %d", len(got), batches)
	}
	for i, d := range got {
		if d.finished != d.last {
			t.Errorf("batch %d finished at %d ns, its latest command completed at %d ns", i, int64(d.finished), int64(d.last))
		}
	}
}
