package kvcache

import (
	"slices"
	"testing"
)

// fuzzTier interprets a byte string as an op sequence against a small
// tier, cross-checking the heap evictor against the naive reference scan
// after every mutation. Each op consumes two bytes: the first is the opcode
// (mod 6) and, above it, the size of the pick that follows (1–3 victims)
// and whether the picked victims are then evicted or kept; the second is a
// key selector. Illegal ops for the current state are skipped, so every
// input is a valid (possibly empty) trace.
func fuzzTier(t *testing.T, data []byte) {
	const frames = 6
	tr := NewTier(TierConfig{Frames: frames, BoostPerHit: 4, BoostCap: 8})
	// Shadow bookkeeping so the interpreter knows which ops are legal.
	resident := map[Key]bool{}
	pins := map[Key]int{}
	busy := map[Key]bool{}

	crossCheck := func(step, n int, evict bool) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// The reference picks one victim at a time; pinning each takes it
		// out of the next scan's way without moving any score.
		var ref []Key
		for len(ref) < n {
			k, ok := tr.PickVictimRef()
			if !ok {
				break
			}
			tr.Pin(tr.Frame(k))
			ref = append(ref, k)
		}
		for _, k := range ref {
			tr.Unpin(tr.Frame(k))
		}
		got := tr.PickVictims(n, nil)
		if !slices.Equal(got, ref) {
			t.Fatalf("step %d: heap victims %v, reference victims %v", step, got, ref)
		}
		// Picked victims are out of the heap: evict them, or touch them
		// back in (the touch moves the score, but for both sides of the
		// next comparison equally).
		for _, k := range got {
			if evict {
				tr.Remove(k)
				delete(resident, k)
				delete(busy, k)
			} else {
				tr.Touch(k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d, after the pick: %v", step, err)
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, sel := data[i]%6, Key(data[i+1]%(frames+2))
		switch op {
		case 0: // insert
			if resident[sel] || tr.FreeFrames() == 0 {
				continue
			}
			f, _ := tr.TakeFree()
			tr.Insert(sel, f, data[i+1]&1 == 0, data[i+1]&2 == 0)
			resident[sel] = true
			busy[sel] = data[i+1]&2 == 0
		case 1: // touch
			if !resident[sel] {
				continue
			}
			tr.Touch(sel)
		case 2: // pin
			if !resident[sel] {
				continue
			}
			tr.Pin(tr.Frame(sel))
			pins[sel]++
		case 3: // unpin
			if pins[sel] == 0 {
				continue
			}
			tr.Unpin(tr.Frame(sel))
			pins[sel]--
		case 4: // toggle busy
			if !resident[sel] {
				continue
			}
			busy[sel] = !busy[sel]
			tr.SetBusy(tr.Frame(sel), busy[sel])
		case 5: // remove, wherever in the heap the entry sits
			if !resident[sel] || pins[sel] > 0 {
				continue
			}
			tr.Remove(sel)
			delete(resident, sel)
			delete(busy, sel)
		}
		crossCheck(i, 1+int(data[i]/6)%3, data[i]/18%2 == 1)
	}
}

// FuzzLRUEvict: under arbitrary insert/touch/pin/unpin/busy/remove
// traces, the heap-indexed importance-aware evictor must pick exactly the
// victims successive O(n) reference scans pick, in their order, and the
// tier's structural invariants must hold after every operation.
func FuzzLRUEvict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 3, 2, 2, 5, 1})
	f.Add([]byte{0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 4, 2, 3, 2, 1, 4, 5, 4})
	f.Add([]byte{0, 1, 2, 1, 0, 3, 4, 3, 1, 3, 1, 3, 3, 1, 5, 1, 0, 5})
	f.Add([]byte{0, 3, 0, 7, 0, 11, 0, 15, 0, 19, 13, 3, 30, 1, 0, 5, 35, 7, 0, 9, 12, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTier(t, data)
	})
}

// TestLRUEvictSeedCorpus runs the fuzz interpreter over a deterministic
// pseudo-random corpus so `go test` exercises the differential check even
// without -fuzz.
func TestLRUEvictSeedCorpus(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	for trace := 0; trace < 64; trace++ {
		data := make([]byte, 2+trace*4)
		for i := range data {
			x = mix64(x + uint64(trace*len(data)+i))
			data[i] = byte(x)
		}
		fuzzTier(t, data)
	}
}

// TestTierScoreOrdering pins the importance policy itself: a frequently
// re-touched block outscores a once-touched block with a fresher
// timestamp, and BoostPerHit = 0 collapses to plain LRU.
func TestTierScoreOrdering(t *testing.T) {
	tr := NewTier(TierConfig{Frames: 4, BoostPerHit: 8, BoostCap: 64})
	f0, _ := tr.TakeFree()
	f1, _ := tr.TakeFree()
	tr.Insert(Key(1), f0, false, false) // the "sink": hot
	tr.Insert(Key(2), f1, false, false) // cold but more recent
	for i := 0; i < 4; i++ {
		tr.Touch(Key(1))
	}
	if v := tr.PickVictims(1, nil); len(v) != 1 || v[0] != Key(2) {
		t.Fatalf("victim %v, want the cold recent block", v)
	}

	lru := NewTier(TierConfig{Frames: 4, BoostPerHit: 0})
	g0, _ := lru.TakeFree()
	g1, _ := lru.TakeFree()
	lru.Insert(Key(1), g0, false, false)
	lru.Insert(Key(2), g1, false, false)
	for i := 0; i < 4; i++ {
		lru.Touch(Key(1)) // frequency must not matter at BoostPerHit 0
	}
	lru.Touch(Key(2))
	if v := lru.PickVictims(1, nil); len(v) != 1 || v[0] != Key(1) {
		t.Fatalf("victim %v, want pure-LRU choice", v)
	}
}
