package kvcache

import (
	"fmt"
	"math/bits"
)

// TierConfig tunes the importance-aware evictor. An entry's score is
//
//	lastUse + BoostPerHit * min(freq, BoostCap)
//
// in access-clock ticks: plain LRU plus a frequency boost, so a block
// attended every step (an attention sink) outranks a once-touched block
// with a slightly fresher timestamp. BoostPerHit = 0 degenerates to LRU.
type TierConfig struct {
	// Frames is the tier capacity in block frames.
	Frames int
	// BoostPerHit is the score credit per recorded access.
	BoostPerHit uint64
	// BoostCap bounds how many accesses keep counting toward the boost,
	// so ancient popularity cannot pin a frame forever.
	BoostCap uint32
}

// picked is the heap position of a held entry that is not in the eviction
// heap: PickVictims handed it out and the caller has not removed it yet.
const picked = int32(-1)

// entry is one frame's metadata; the zero value is a frame nobody holds.
type entry struct {
	key   Key
	last  uint64 // access clock at last touch
	freq  uint32
	pins  int32
	pos   int32 // index of this frame's node in Tier.heap, or picked
	held  bool
	busy  bool // fill or spill in flight; never evictable
	dirty bool // no SSD copy yet; eviction must spill
	fresh bool // filled from SSD and not yet touched — accounting only
}

// node is one eviction-heap slot. The score is the entry's, copied so that
// a sift reads the heap array alone except on a tie.
type node struct {
	score uint64
	frame int32
}

// Tier is the GPU-DRAM tier's bookkeeping: a frame free list plus an
// eviction index over resident blocks. It deliberately owns no buffer —
// frame f of a tier with BlockBytes-sized frames is byte range
// [f*BlockBytes, (f+1)*BlockBytes) of whatever buffer the server
// allocated — which keeps the policy core runnable under plain unit,
// property, and fuzz tests with no simulation engine behind it.
//
// Everything is indexed by frame. ents[f] is frame f's entry; tab is an
// open-addressed key → frame table (linear probing, at most half full,
// a slot holds frame+1 and the key is read through ents); heap is a binary
// min-heap over (score, key) holding one node per held entry, whose
// position the entry records — a touch sifts the node down in place and a
// removal deletes it, so the heap never outgrows Frames. PickVictims
// therefore returns the exact minimum eligible entries in (score, key)
// order — the answer the O(n) reference scan gives, which FuzzLRUEvict
// enforces.
type Tier struct {
	cfg      TierConfig
	free     []int32
	ents     []entry
	tab      []int32
	shift    uint // 64 - log2(len(tab)): home slot = top bits of the hashed key
	resident int
	clock    uint64
	heap     []node
	skip     []node // ineligible nodes set aside during a pick
}

// NewTier builds an empty tier with cfg.Frames free frames.
func NewTier(cfg TierConfig) *Tier {
	if cfg.Frames <= 0 {
		panic("kvcache: tier needs at least one frame")
	}
	lg := uint(bits.Len(uint(2*cfg.Frames - 1)))
	t := &Tier{
		cfg:   cfg,
		free:  make([]int32, 0, cfg.Frames),
		ents:  make([]entry, cfg.Frames),
		tab:   make([]int32, 1<<lg),
		shift: 64 - lg,
		heap:  make([]node, 0, cfg.Frames),
	}
	for f := cfg.Frames - 1; f >= 0; f-- {
		t.free = append(t.free, int32(f))
	}
	return t
}

// FreeFrames reports how many frames are unassigned.
func (t *Tier) FreeFrames() int { return len(t.free) }

// Resident reports how many blocks currently hold frames.
func (t *Tier) Resident() int { return t.resident }

// TakeFree pops a free frame, lowest index first.
func (t *Tier) TakeFree() (int32, bool) {
	n := len(t.free)
	if n == 0 {
		return noFrame, false
	}
	f := t.free[n-1]
	t.free = t.free[:n-1]
	return f, true
}

func (t *Tier) score(e *entry) uint64 {
	f := uint64(e.freq)
	if f > uint64(t.cfg.BoostCap) {
		f = uint64(t.cfg.BoostCap)
	}
	return e.last + t.cfg.BoostPerHit*f
}

// home is key's first probe slot.
func (t *Tier) home(key Key) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> t.shift)
}

// lookup probes for key: its slot and frame, or the empty slot that ends
// its probe run and noFrame.
func (t *Tier) lookup(key Key) (slot int, frame int32) {
	for i := t.home(key); ; i = (i + 1) & (len(t.tab) - 1) {
		f := t.tab[i] - 1
		if f < 0 || t.ents[f].key == key {
			return i, f
		}
	}
}

// Insert registers key in frame. busy marks an in-flight fill; dirty
// marks a block with no SSD copy. The entry starts with one access on
// the clock. Busy inserts (fills) are flagged fresh until first touched,
// so the server can tell a prefetch-served access from a plain hit.
func (t *Tier) Insert(key Key, frame int32, dirty, busy bool) {
	if frame < 0 || int(frame) >= t.cfg.Frames {
		panic(fmt.Sprintf("kvcache: frame %d out of tier", frame))
	}
	e := &t.ents[frame]
	if e.held {
		panic(fmt.Sprintf("kvcache: frame %d offered to %v is held by %v", frame, key, e.key))
	}
	slot, f := t.lookup(key)
	if f >= 0 {
		panic(fmt.Sprintf("kvcache: tier already holds %v", key))
	}
	t.clock++
	*e = entry{key: key, held: true, busy: busy, dirty: dirty, fresh: busy, freq: 1, last: t.clock}
	t.tab[slot] = frame + 1
	t.resident++
	t.push(node{score: t.score(e), frame: frame})
}

// Frame reports key's frame.
func (t *Tier) Frame(key Key) int32 {
	_, f := t.lookup(key)
	if f < 0 {
		panic(fmt.Sprintf("kvcache: tier does not hold %v", key))
	}
	return f
}

// at is the entry of frame f, which a block must hold. The flag accessors
// below take the frame: whoever pins or marks a block got its frame from
// Insert, Frame or the block map, and need not probe for it again.
func (t *Tier) at(f int32) *entry {
	e := &t.ents[f]
	if !e.held {
		panic(fmt.Sprintf("kvcache: frame %d holds no block", f))
	}
	return e
}

// Touch records an access: bumps recency and frequency and moves the
// entry's node to its new place in the eviction heap — back into the
// heap, if the entry is a picked victim the caller chose to keep. It
// reports whether this is the entry's first touch since it was filled
// from SSD (and clears that flag).
func (t *Tier) Touch(key Key) bool {
	f := t.Frame(key)
	e := &t.ents[f]
	t.clock++
	e.last = t.clock
	e.freq++
	fresh := e.fresh
	e.fresh = false
	nd := node{score: t.score(e), frame: f}
	if e.pos == picked {
		t.push(nd)
	} else {
		t.down(int(e.pos), nd) // a touch only ever raises the score
	}
	return fresh
}

// Pin makes frame f's block ineligible for eviction until the matching
// Unpin.
func (t *Tier) Pin(f int32) { t.at(f).pins++ }

// Unpin releases one pin.
func (t *Tier) Unpin(f int32) {
	e := t.at(f)
	if e.pins == 0 {
		panic(fmt.Sprintf("kvcache: unpin of unpinned %v", e.key))
	}
	e.pins--
}

// SetBusy flags or clears an in-flight transfer on frame f's block.
func (t *Tier) SetBusy(f int32, busy bool) { t.at(f).busy = busy }

// Dirty reports whether frame f's block still lacks an SSD copy.
func (t *Tier) Dirty(f int32) bool { return t.at(f).dirty }

// Busy reports whether frame f's block has a transfer in flight.
func (t *Tier) Busy(f int32) bool { return t.at(f).busy }

// Holds reports whether key is in the tier at all.
func (t *Tier) Holds(key Key) bool {
	_, f := t.lookup(key)
	return f >= 0
}

// Remove drops key from the tier and returns its frame to the free list.
// In-flight (busy) entries may be removed — that is exactly how a
// completed spill leaves — but pinned entries never.
func (t *Tier) Remove(key Key) int32 {
	i, f := t.lookup(key)
	if f < 0 {
		panic(fmt.Sprintf("kvcache: tier does not hold %v", key))
	}
	e := &t.ents[f]
	if e.pins > 0 {
		panic(fmt.Sprintf("kvcache: remove of pinned %v", key))
	}
	if e.pos != picked {
		t.unindex(int(e.pos))
	}
	// Backward-shift delete: close the hole at i with every later entry of
	// the probe run whose home slot lies at or before the hole.
	mask := len(t.tab) - 1
	for j := (i + 1) & mask; t.tab[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.ents[t.tab[j]-1].key); (j-h)&mask >= (j-i)&mask {
			t.tab[i] = t.tab[j]
			i = j
		}
	}
	t.tab[i] = 0
	*e = entry{}
	t.resident--
	t.free = append(t.free, f)
	return f
}

// PickVictims selects up to n eviction victims — the minimum-score
// unpinned, non-busy entries, ties broken by key — appending them to out.
// The victims leave the eviction heap, so the caller must Remove each one
// (or Touch it, which keeps it and indexes it again); anything pinned or
// busy encountered on the way is preserved.
func (t *Tier) PickVictims(n int, out []Key) []Key {
	t.skip = t.skip[:0]
	for len(out) < n && len(t.heap) > 0 {
		top := t.heap[0]
		t.unindex(0)
		if e := &t.ents[top.frame]; e.pins > 0 || e.busy {
			t.skip = append(t.skip, top) // amortized scratch growth to the pinned high-water mark
		} else {
			out = append(out, e.key)
		}
	}
	for _, nd := range t.skip {
		t.push(nd)
	}
	return out
}

// PickVictimRef is the naive reference evictor: a linear scan for the
// minimum (score, key) among eligible entries — held, unpinned, not busy
// and not already picked. The fuzz harness cross-checks the heap against
// this.
func (t *Tier) PickVictimRef() (Key, bool) {
	var best Key
	var bestScore uint64
	found := false
	for i := range t.ents {
		e := &t.ents[i]
		if !e.held || e.pos == picked || e.pins > 0 || e.busy {
			continue
		}
		if s := t.score(e); !found || s < bestScore || (s == bestScore && e.key < best) {
			best, bestScore, found = e.key, s, true
		}
	}
	return best, found
}

// CheckInvariants re-derives the tier's structure: frames partition into
// free + held with no frame free twice or out of range, the key table
// finds exactly the held entries, and the eviction heap is a heap of
// exactly the held, unpicked entries at their live scores.
func (t *Tier) CheckInvariants() error {
	if len(t.free)+t.resident != t.cfg.Frames {
		return fmt.Errorf("kvcache: %d free + %d resident != %d frames", len(t.free), t.resident, t.cfg.Frames)
	}
	isFree := make([]bool, t.cfg.Frames)
	for _, f := range t.free {
		if f < 0 || int(f) >= t.cfg.Frames {
			return fmt.Errorf("kvcache: free frame %d out of range", f)
		}
		if isFree[f] {
			return fmt.Errorf("kvcache: frame %d on free list twice", f)
		}
		if t.ents[f].held {
			return fmt.Errorf("kvcache: free frame %d held by %v", f, t.ents[f].key)
		}
		isFree[f] = true
	}
	held, indexed := 0, 0
	for i := range t.ents {
		e, f := &t.ents[i], int32(i)
		if !e.held {
			continue
		}
		held++
		if _, got := t.lookup(e.key); got != f {
			return fmt.Errorf("kvcache: %v in frame %d, key table says %d", e.key, f, got)
		}
		if e.pos == picked {
			continue
		}
		indexed++
		if int(e.pos) >= len(t.heap) || t.heap[e.pos] != (node{score: t.score(e), frame: f}) {
			return fmt.Errorf("kvcache: %v missing from eviction index", e.key)
		}
	}
	slots := 0
	for _, s := range t.tab {
		if s != 0 {
			slots++
		}
	}
	if held != t.resident || slots != held || indexed != len(t.heap) {
		return fmt.Errorf("kvcache: %d held, %d counted, %d table slots; %d indexed, %d heap nodes",
			held, t.resident, slots, indexed, len(t.heap))
	}
	for i := 1; i < len(t.heap); i++ {
		if t.less(t.heap[i], t.heap[(i-1)/2]) {
			return fmt.Errorf("kvcache: eviction heap out of order at %d", i)
		}
	}
	return nil
}

func (t *Tier) less(a, b node) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return t.ents[a.frame].key < t.ents[b.frame].key
}

// place writes nd at heap[i] and records the position in its entry.
func (t *Tier) place(i int, nd node) {
	t.heap[i] = nd
	t.ents[nd.frame].pos = int32(i)
}

// push adds a node to the heap.
func (t *Tier) push(nd node) {
	t.heap = append(t.heap, nd) // capacity is Frames from NewTier and one node per held entry never exceeds it
	t.up(len(t.heap)-1, nd)
}

// unindex deletes heap[i], marking its entry picked.
func (t *Tier) unindex(i int) {
	t.ents[t.heap[i].frame].pos = picked
	n := len(t.heap) - 1
	last := t.heap[n]
	t.heap = t.heap[:n]
	if i == n {
		return
	}
	if i > 0 && t.less(last, t.heap[(i-1)/2]) {
		t.up(i, last)
	} else {
		t.down(i, last)
	}
}

// up settles nd, headed for the hole at heap[i], toward the root.
func (t *Tier) up(i int, nd node) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(nd, t.heap[p]) {
			break
		}
		t.place(i, t.heap[p])
		i = p
	}
	t.place(i, nd)
}

// down settles nd, headed for the hole at heap[i], toward the leaves.
func (t *Tier) down(i int, nd node) {
	for {
		c := 2*i + 1
		if c >= len(t.heap) {
			break
		}
		if c+1 < len(t.heap) && t.less(t.heap[c+1], t.heap[c]) {
			c++
		}
		if !t.less(t.heap[c], nd) {
			break
		}
		t.place(i, t.heap[c])
		i = c
	}
	t.place(i, nd)
}
