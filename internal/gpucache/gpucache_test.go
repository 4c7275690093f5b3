package gpucache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/sim"
)

func newCache(cfg Config) *Cache {
	g := gpu.New(sim.New(), "gpu0", gpu.DefaultConfig(), mem.NewSpace())
	return New(g, "cache", cfg)
}

// resident reports whether block hits (refreshing its recency, as any
// lookup does).
func resident(c *Cache, block uint64) bool {
	_, hit := c.LookupRef(block)
	return hit
}

func TestMissThenHit(t *testing.T) {
	c := newCache(Config{Sets: 4, Ways: 2, LineBytes: 512})
	if resident(c, 7) {
		t.Fatal("cold cache hit")
	}
	c.Payload().WriteAt([]byte{0xAB}, c.InsertRef(7))
	var got [1]byte
	off, hit := c.LookupRef(7)
	c.Payload().ReadAt(got[:], off)
	if !hit || got[0] != 0xAB {
		t.Fatalf("hit=%v data=%x", hit, got[0])
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One set, two ways: blocks 0, 4, 8 map to set 0 (sets=4).
	c := newCache(Config{Sets: 4, Ways: 2, LineBytes: 512})
	c.InsertRef(0)
	c.InsertRef(4)
	c.LookupRef(0) // refresh 0: now 4 is LRU
	c.InsertRef(8) // must evict 4
	if !resident(c, 0) || !resident(c, 8) {
		t.Fatal("wrong victim: survivors missing")
	}
	if resident(c, 4) {
		t.Fatal("LRU victim 4 survived")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestInsertResidentRefreshes(t *testing.T) {
	c := newCache(Config{Sets: 1, Ways: 2, LineBytes: 512})
	c.InsertRef(1)
	c.InsertRef(2)
	c.InsertRef(1) // refresh, not duplicate
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.InsertRef(3) // evicts 2 (LRU), not 1
	if !resident(c, 1) || resident(c, 2) {
		t.Fatal("refresh did not update recency")
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(Config{Sets: 2, Ways: 1, LineBytes: 512})
	c.InsertRef(2)
	c.Invalidate(2)
	if resident(c, 2) {
		t.Fatal("invalidate left block resident")
	}
	c.Invalidate(99) // absent: no-op
}

func TestSetMapping(t *testing.T) {
	c := newCache(Config{Sets: 8, Ways: 1, LineBytes: 512})
	for b := uint64(0); b < 8; b++ {
		c.InsertRef(b)
	}
	// All 8 blocks hit distinct sets: none evicted.
	for b := uint64(0); b < 8; b++ {
		if !resident(c, b) {
			t.Fatalf("block %d evicted despite distinct sets", b)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for i, cfg := range []Config{
		{Sets: 3, Ways: 1, LineBytes: 512},
		{Sets: 4, Ways: 0, LineBytes: 512},
		{Sets: 4, Ways: 1, LineBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			newCache(cfg)
		}()
	}
}

// Property: after any access sequence, invariants hold and a Lookup hit
// always returns the bytes most recently inserted for that block.
func TestCacheConsistencyQuick(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		c := newCache(Config{Sets: 4, Ways: 2, LineBytes: 8})
		rng := sim.NewRNG(seed)
		content := map[uint64]byte{}
		var data [1]byte
		for i := 0; i < int(ops); i++ {
			b := uint64(rng.Int63n(32))
			if rng.Float64() < 0.5 {
				tag := byte(rng.Uint64())
				c.Payload().WriteAt([]byte{tag}, c.InsertRef(b))
				content[b] = tag
			} else if off, hit := c.LookupRef(b); hit {
				c.Payload().ReadAt(data[:], off)
				if data[0] != content[b] {
					return false
				}
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %g", s.HitRate())
	}
}
