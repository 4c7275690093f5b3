package kvcache

import (
	"runtime"
	"testing"

	"camsim/internal/sim"
)

// TestInsertIntoHeldFramePanics: handing Insert a frame another key holds
// fails at the call, not at the next CheckInvariants.
func TestInsertIntoHeldFramePanics(t *testing.T) {
	tr := NewTier(TierConfig{Frames: 4})
	f, _ := tr.TakeFree()
	tr.Insert(Key(1), f, false, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert accepted a frame that Key(1) holds")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("tier damaged by the refused insert: %v", err)
		}
	}()
	tr.Insert(Key(2), f, false, false)
}

// TestTouchKeepsPickedVictim: a victim PickVictims returned is out of the
// eviction heap until the caller removes it; touching it instead keeps the
// block and makes it evictable again, at its new score.
func TestTouchKeepsPickedVictim(t *testing.T) {
	tr := NewTier(TierConfig{Frames: 4, BoostPerHit: 8, BoostCap: 64})
	for k := Key(1); k <= 3; k++ {
		f, _ := tr.TakeFree()
		tr.Insert(k, f, false, false)
	}
	if v := tr.PickVictims(1, nil); len(v) != 1 || v[0] != Key(1) {
		t.Fatalf("first victim %v, want Key(1)", v)
	}
	if k, ok := tr.PickVictimRef(); !ok || k != Key(2) {
		t.Fatalf("reference offers %v while Key(1) is picked, want Key(2)", k)
	}
	if v := tr.PickVictims(3, nil); len(v) != 2 || v[0] != Key(2) || v[1] != Key(3) {
		t.Fatalf("second pick %v, want Key(2) Key(3) and never Key(1) again", v)
	}
	tr.Touch(Key(1))
	tr.Remove(Key(2))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v := tr.PickVictims(3, nil); len(v) != 1 || v[0] != Key(1) {
		t.Fatalf("after the touch %v, want Key(1) alone (Key(3) still picked)", v)
	}
}

// fuzzIndex interprets data as insert/remove churn over sixteen keys whose
// home slots all lie in the last three slots of an 8-frame tier's table,
// so probe runs collide and wrap around its end, and checks every lookup
// against a Go map. Each byte is one op: the low nibble picks the key and
// the top bit removes it if present, inserts it otherwise.
func fuzzIndex(t *testing.T, data []byte) {
	tr := NewTier(TierConfig{Frames: 8})
	var keys []Key
	for k := Key(0); len(keys) < 16; k++ {
		if tr.home(k) >= len(tr.tab)-3 {
			keys = append(keys, k)
		}
	}
	want := map[Key]int32{}
	for step, b := range data {
		k := keys[b&15]
		if f, held := want[k]; held && b&0x80 != 0 {
			if got := tr.Remove(k); got != f {
				t.Fatalf("step %d: removed %v from frame %d, want %d", step, k, got, f)
			}
			delete(want, k)
		} else if !held && tr.FreeFrames() > 0 {
			f, _ := tr.TakeFree()
			tr.Insert(k, f, false, false)
			want[k] = f
		}
		for _, k := range keys {
			f, held := want[k]
			if tr.Holds(k) != held || (held && tr.Frame(k) != f) {
				t.Fatalf("step %d: %v held=%v in frame %d, table says held=%v", step, k, held, f, tr.Holds(k))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// FuzzTierIndex: the open-addressed key → frame table agrees with a Go map
// under arbitrary churn of colliding, end-wrapping keys.
func FuzzTierIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0x80, 0x82, 5, 6, 0x81, 0x84, 7})
	f.Add([]byte{15, 14, 13, 12, 11, 10, 9, 8, 0x8f, 0x8b, 0x88, 0, 1, 0x8e, 0x80})
	f.Fuzz(fuzzIndex)
}

// TestTierIndexSeedCorpus runs the index interpreter over a deterministic
// pseudo-random corpus so `go test` exercises it without -fuzz.
func TestTierIndexSeedCorpus(t *testing.T) {
	rng := sim.NewRNG(29)
	for trace := 0; trace < 64; trace++ {
		data := make([]byte, 8+trace*4)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		fuzzIndex(t, data)
	}
}

// tierCycle is the steady-state mix bench/drives.go measures as
// kvcache.tier_ns_per_op: a full 2048-frame tier taking seven touches of
// resident keys, then one eviction (PickVictims, Remove) and one Insert.
func tierCycle() func(n int) {
	const frames = 2048
	tr := NewTier(TierConfig{Frames: frames, BoostPerHit: 8, BoostCap: 64})
	key := func(k int) Key { return MakeKey(k%12, k%8, k) }
	next := 0
	insert := func() {
		f, _ := tr.TakeFree()
		tr.Insert(key(next), f, false, false)
		next++
	}
	for tr.FreeFrames() > 0 {
		insert()
	}
	rng := sim.NewRNG(23)
	victims := make([]Key, 0, 1)
	return func(n int) {
		for i := 0; i < n; i++ {
			if i%8 != 0 {
				k := key(next - 1 - int(rng.Int63n(frames)))
				for !tr.Holds(k) {
					k = key(next - 1 - int(rng.Int63n(frames)))
				}
				tr.Touch(k)
				continue
			}
			victims = tr.PickVictims(1, victims[:0])
			tr.Remove(victims[0])
			insert()
		}
	}
}

// BenchmarkTierCycle reports host ns per tier operation and fails if the
// steady state allocates.
func BenchmarkTierCycle(b *testing.B) {
	cycle := tierCycle()
	cycle(4096)
	b.ReportAllocs()
	b.ResetTimer()
	cycle(b.N)
	b.StopTimer()
	if a := testing.AllocsPerRun(3, func() { cycle(4096) }); a != 0 {
		b.Fatalf("%v allocs per 4096 steady-state tier operations, want 0", a)
	}
}

// TestNewTierFootprint bounds what a kv-serve sized tier costs to build:
// 32 B of entry, 16 B of heap node, 8 B of key table and 4 B of free list
// per frame is 120 KiB at 2048 frames, all of it allocated up front. The
// counters are the process's, so the cost is averaged over enough builds
// that a stray runtime allocation cannot reach the bound.
func TestNewTierFootprint(t *testing.T) {
	const budget, builds = 128 << 10, 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		runtime.KeepAlive(NewTier(TierConfig{Frames: 2048, BoostPerHit: 8, BoostCap: 64}))
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > budget {
		t.Errorf("NewTier(2048 frames) allocates %d bytes, budget %d", got, budget)
	}
	if n := (after.Mallocs - before.Mallocs) / builds; n > 5 {
		t.Errorf("NewTier makes %d allocations, want the tier and its four arrays", n)
	}
}
