// Package gpucache implements the set-associative GPU-memory software
// cache that BaM's array abstraction ships with (and that GIDS relies on
// for feature reuse). Lines hold real bytes in GPU memory, so cache hits
// serve data without touching the SSDs; LRU eviction runs within each set.
//
// The paper evaluates GIDS and CAM without CPU-side caches (§IV-C), but
// BaM's GPU cache is integral to its design, so this package exists both
// for fidelity and for the abl-cache experiment that shows when caching
// narrows — and when it cannot close — the gap CAM opens.
package gpucache

import (
	"fmt"

	"camsim/internal/gpu"
	"camsim/internal/mem"
)

// Config shapes the cache.
type Config struct {
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache line size (equals the array's block size).
	LineBytes int64
}

// Stats counts cache activity.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate reports hits/(hits+misses), 0 when unused.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type line struct {
	valid bool
	block uint64
	lru   uint64 // larger = more recently used
}

// Cache is one GPU-resident cache instance.
type Cache struct {
	cfg   Config
	tags  [][]line
	data  *gpu.Buffer
	clock uint64
	stats Stats
}

// New allocates the cache's line storage in GPU memory.
func New(g *gpu.GPU, name string, cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("gpucache: Sets must be a positive power of two")
	}
	if cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic("gpucache: invalid config")
	}
	c := &Cache{
		cfg:  cfg,
		tags: make([][]line, cfg.Sets),
		data: g.Alloc(name, int64(cfg.Sets)*int64(cfg.Ways)*cfg.LineBytes),
	}
	for i := range c.tags {
		c.tags[i] = make([]line, cfg.Ways)
	}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineBytes reports the configured line size.
func (c *Cache) LineBytes() int64 { return c.cfg.LineBytes }

func (c *Cache) set(block uint64) int { return int(block) & (c.cfg.Sets - 1) }

// Payload exposes the line storage for reference-passing transfers; pair
// it with the offsets from LookupRef and InsertRef.
func (c *Cache) Payload() *mem.Payload { return c.data.Payload() }

// lineOff returns the byte offset of (set, way) in the line storage.
func (c *Cache) lineOff(set, way int) int64 {
	return (int64(set)*int64(c.cfg.Ways) + int64(way)) * c.cfg.LineBytes
}

// LookupRef reports the line-storage offset for block and whether it hit;
// a hit refreshes the line's recency. Content moves by payload reference.
func (c *Cache) LookupRef(block uint64) (int64, bool) {
	s := c.set(block)
	for w := range c.tags[s] {
		l := &c.tags[s][w]
		if l.valid && l.block == block {
			c.clock++
			l.lru = c.clock
			c.stats.Hits++
			return c.lineOff(s, w), true
		}
	}
	c.stats.Misses++
	return 0, false
}

// InsertRef claims a line for block (evicting the set's LRU victim if
// full) and returns its line-storage offset for the caller to fill via
// payload copy. Inserting a resident block refreshes it in place.
func (c *Cache) InsertRef(block uint64) int64 {
	s := c.set(block)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := range c.tags[s] {
		l := &c.tags[s][w]
		if l.valid && l.block == block {
			c.clock++
			l.lru = c.clock
			return c.lineOff(s, w)
		}
		if !l.valid {
			victim = w
			oldest = 0
			continue
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = w
		}
	}
	l := &c.tags[s][victim]
	if l.valid {
		c.stats.Evictions++
	}
	c.clock++
	*l = line{valid: true, block: block, lru: c.clock}
	return c.lineOff(s, victim)
}

// Invalidate drops a block if resident (write-path coherence).
func (c *Cache) Invalidate(block uint64) {
	s := c.set(block)
	for w := range c.tags[s] {
		l := &c.tags[s][w]
		if l.valid && l.block == block {
			l.valid = false
			return
		}
	}
}

// CheckInvariants validates that no block is cached twice.
func (c *Cache) CheckInvariants() error {
	seen := make(map[uint64]bool)
	for s := range c.tags {
		for _, l := range c.tags[s] {
			if !l.valid {
				continue
			}
			if seen[l.block] {
				return fmt.Errorf("gpucache: block %d cached twice", l.block)
			}
			if c.set(l.block) != s {
				return fmt.Errorf("gpucache: block %d in wrong set %d", l.block, s)
			}
			seen[l.block] = true
		}
	}
	return nil
}
