package harness

import (
	"runtime"
	"testing"

	"camsim/internal/sim"
)

// TestKVServeEarlyWaiterSeeds serves the default camkv shape on CAM with the
// two seeds on which a session looks up a block whose covering transfer is
// published but not yet issued: CAM's publish yields inside Start*List, so
// the waiter used to dereference a nil handle and crash the run. KVRun
// panics on any verification failure.
func TestKVServeEarlyWaiterSeeds(t *testing.T) {
	def := kvDefaults(KVParams{}, false)
	want := uint64(def.Sessions * def.Decode)
	for _, seed := range []uint64{2, 3} {
		srv, _ := KVRun(RunConfig{}, KVParams{Seed: seed}, "CAM")
		if st := srv.Stats(); st.DecodedTokens != want || st.Fills == 0 || st.Spills == 0 {
			t.Errorf("seed %d: served %+v, want %d tokens through a churning tier", seed, st, want)
		}
	}
}

// TestKVServePinned serves the benchmark's kv-serve shape on CAM and holds
// the tier's decisions, the makespan and every session checksum to recorded
// values (taken at a9ab219, re-recorded when a blocked kernel's thread
// top-up moved to its admission, when the SPDK reactor began paying its
// costs per run and when its host-DRAM crossings moved to their instants): a host-side change to internal/kvcache must reproduce
// them bit for bit. Seeds 11 and 67 are two of the six that
// bench/wl_kv.go folds away, so the benchmark's identity check never sees
// them.
func TestKVServePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three 6144-step serving runs")
	}
	for _, want := range kvPinned {
		p := KVParams{Sessions: 12, Prompt: 4096, Decode: 512, Layers: 8, DRAM: 2048, SSDs: 8, Seed: want.seed}
		srv, _ := KVRun(RunConfig{}, p, "CAM")
		st := srv.Stats()
		got := [6]uint64{st.Hits, st.Prefetched, st.Misses, st.Fills, st.Spills, st.CleanDrops}
		if got != want.counts || st.LastEnd != want.end {
			t.Errorf("seed %d: hits/prefetched/misses/fills/spills/drops %v end %d, want %v end %d",
				want.seed, got, int64(st.LastEnd), want.counts, int64(want.end))
		}
		for i, sum := range want.sums {
			if got, expect := srv.SessionChecksum(i); got != sum || expect != sum {
				t.Errorf("seed %d session %d: checksum %#x (analytic %#x), want %#x", want.seed, i, got, expect, sum)
			}
		}
	}
}

var kvPinned = []struct {
	seed   uint64
	counts [6]uint64 // hits, prefetched, misses, fills, spills, clean drops
	end    sim.Time
	sums   [12]uint64
}{
	{1, [6]uint64{132073, 62068, 888, 62956, 27589, 61083}, 1072070746, [12]uint64{
		0xe0360a0ca2b54d5e, 0x1124e9224c4b9104, 0x220713a35c395b3f, 0xa315d21e186d1d79, 0xea19f021a0996e3e, 0x5b4abad6ad326add,
		0x631f2a077eea6f2e, 0x3fbc1bbe090d4513, 0x57e36fec83335b70, 0x39567624d9a3dda9, 0x5b2f2adaaa678a7b, 0x6c5b746d5e9666c6}},
	{11, [6]uint64{131959, 62197, 937, 63134, 27591, 61257}, 1070716432, [12]uint64{
		0xd0acb57f834d8808, 0x8c53740ea575bab7, 0x6db908ac1b0b7ea5, 0xe2b8801b901135e5, 0x4e99f59b38c8966, 0xc6535c8dd9ce12b4,
		0xc7d71e62f7ad1bb0, 0x49a763970755a8f1, 0xf72b3cb6a3173890, 0x32576dedb7f4f828, 0x3297e1b1ba0526d7, 0xf5dadfddcaa11731}},
	{67, [6]uint64{132091, 62150, 879, 63029, 27582, 61162}, 1071591860, [12]uint64{
		0x6de230a9e3cb3723, 0xd84966731c894029, 0xc32a30403c329c0c, 0x293afae7eec4f6da, 0xf8abef15a89034a6, 0xc754791d0afe52ad,
		0x7d4357cf6fd0b0d5, 0x5251b31e4e90d495, 0xded5b63a0bac022f, 0x20f0f0e2fe9abb5d, 0xe84a9da64ffc4285, 0x922a21d9e1a117f7}},
}

// TestKVServeAllocCeiling runs the benchmark's kv-serve shape — machine
// construction included, which the benchmark keeps outside its count — and
// fails above 4 000 heap objects (108 k per run before batches, signals and
// stamp chunks were carved from slabs; 2 444 measured, 2 627 under -race).
// The count repeats to a few objects, and the shape has 6 144 decode steps,
// so even one allocation per step coming back crosses the ceiling.
func TestKVServeAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("one 6144-step serving run")
	}
	const ceiling = 4000
	p := KVParams{Sessions: 12, Prompt: 4096, Decode: 512, Layers: 8, DRAM: 2048, SSDs: 8, Seed: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	srv, _ := KVRun(RunConfig{}, p, "CAM")
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got > ceiling {
		t.Errorf("kv-serve shape allocated %d objects, ceiling %d", got, ceiling)
	} else {
		t.Logf("kv-serve shape: %d objects (ceiling %d)", got, ceiling)
	}
	if st := srv.Stats(); st.DecodedTokens != uint64(p.Sessions*p.Decode) {
		t.Errorf("served %d tokens, want %d", st.DecodedTokens, p.Sessions*p.Decode)
	}
}
