package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Payload is the content of a simulated memory range, carried by reference
// instead of by bytes. A payload is a sorted, gap-free sequence of extents
// over [0, Size()), each one of:
//
//   - zero: the range reads as zeros (the dominant case — figure workloads
//     stream terabytes of blocks whose content nothing ever inspects);
//   - materialized: the range lives in the payload's own backing slice;
//   - reference: the range aliases an immutable, reference-counted Chunk
//     shared with other payloads (the product of a zero-copy transfer).
//
// Copies between payloads (PayloadCopy) move descriptors, not bytes: zero
// ranges stay zero, shared chunks gain a reference, and only materialized
// source bytes are snapshotted — once — into a chunk that every downstream
// hop then shares. Real bytes exist only where a consumer called Bytes()
// or MakeEager(), so a simulation whose workloads never read their data
// moves no memory at all while remaining bit-exact for the ones that do.
//
// Payloads are not safe for concurrent use; like every other simulation
// structure they belong to one machine and run under its engine. The chunk
// and payload pools below are the only process-global state and take a
// mutex.
type Payload struct {
	size    int64
	data    []byte // backing bytes; nil until first materialization
	eager   bool   // sticky: writes land as bytes immediately (old data plane)
	wrapped bool   // data belongs to the caller; never pooled
	extents []extent
	// room is where extents starts out, so a payload takes its first few
	// splices without growing a list of its own.
	room [4]extent
}

type extKind uint8

const (
	extZero extKind = iota
	extMat
	extRef
)

// extent describes payload content for [off, off+n). Invariants: extents
// are sorted by off, adjacent (no gaps), and cover [0, size) exactly; a
// ref extent holds one reference on its chunk.
type extent struct {
	off, n int64
	kind   extKind
	ch     *Chunk
	chOff  int64
}

// Chunk is an immutable span of content shared between payloads by
// reference counting. Chunks are created full (snapshot of a source range)
// and recycled through a size-classed pool when the last reference drops.
type Chunk struct {
	data []byte
	refs int32
}

func (c *Chunk) retain() { c.refs++ }

func (c *Chunk) release() {
	c.refs--
	if c.refs > 0 {
		return
	}
	if c.refs < 0 {
		panic("mem: chunk over-released")
	}
	chunkPut(c)
}

// chunkPool recycles chunks by power-of-two size class. Snapshot chunks
// churn at DMA-granule rate, and content is fully overwritten on reuse, so
// recycled chunks are handed back dirty.
//
// A miss in a sub-page class carves slabLen headers and slabLen·size bytes,
// each chunk's slice capped at its own size so no neighbour is reachable
// through cap, and headers point only into their own data slab. Page-sized
// and larger chunks are allocated singly: most chunks die with their machine
// unreleased, and a slab of those would stay resident for as long as one
// neighbour sat in this pool.
var chunkPool struct {
	mu      sync.Mutex
	classes [48][]*Chunk
	slabs   [carveBelow]struct {
		hdrs []Chunk
		data []byte
	}
}

const (
	slabLen    = 64
	carveBelow = 12 // classes under 1<<12 bytes are carved
)

func chunkClass(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

func chunkGet(n int64) *Chunk {
	cls := chunkClass(n)
	chunkPool.mu.Lock()
	var c *Chunk
	if l := chunkPool.classes[cls]; len(l) > 0 {
		c = l[len(l)-1]
		l[len(l)-1] = nil
		chunkPool.classes[cls] = l[:len(l)-1]
	}
	if c == nil && cls < carveBelow {
		c = chunkCarve(cls)
	}
	chunkPool.mu.Unlock()
	if c == nil {
		c = &Chunk{data: make([]byte, 1<<cls)} // pool-miss cold path
	}
	c.data = c.data[:n]
	c.refs = 1
	return c
}

// chunkCarve is the pool-miss cold path of a sub-page class (chunkPool.mu
// held).
func chunkCarve(cls int) *Chunk {
	size := 1 << cls
	sl := &chunkPool.slabs[cls]
	if len(sl.hdrs) == 0 {
		sl.hdrs, sl.data = make([]Chunk, slabLen), make([]byte, slabLen*size)
	}
	c := &sl.hdrs[0]
	c.data = sl.data[:size:size]
	sl.hdrs, sl.data = sl.hdrs[1:], sl.data[size:]
	return c
}

func chunkPut(c *Chunk) {
	c.data = c.data[:cap(c.data)]
	cls := chunkClass(int64(cap(c.data)))
	chunkPool.mu.Lock()
	chunkPool.classes[cls] = append(chunkPool.classes[cls], c)
	chunkPool.mu.Unlock()
}

// payloadFree recycles payload headers and their extent slices.
var payloadFree struct {
	mu   sync.Mutex
	list []*Payload
}

// defaultEager is the process-wide payload mode: false propagates
// references (the zero-copy data plane), true materializes every payload
// at birth: the eager byte plane, kept as the oracle the lazy≡eager tests and
// fuzzers compare against. Only they flip it.
var defaultEager atomic.Bool

// SetDefaultEager selects the payload mode for subsequently created
// payloads.
func SetDefaultEager(v bool) { defaultEager.Store(v) }

// DefaultEager reports the process-wide payload mode.
func DefaultEager() bool { return defaultEager.Load() }

// NewPayload creates a payload of the given size. Lazy payloads read as
// zeros and own no bytes; eager payloads allocate zeroed backing up front
// and behave exactly like the pre-payload data plane.
func NewPayload(size int64, eager bool) *Payload {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative payload size %d", size))
	}
	p := payloadGet()
	p.size = size
	p.eager = eager
	if size == 0 {
		return p
	}
	if eager {
		p.data = BackingGet(size)
		p.extents = append(p.extents, extent{off: 0, n: size, kind: extMat})
	} else {
		p.extents = append(p.extents, extent{off: 0, n: size, kind: extZero})
	}
	return p
}

// WrapBytes builds an eager payload view over caller-owned bytes: content
// operations read and write the slice in place, and Release leaves it
// alone. It adapts byte-slice APIs (ring memory, test scratch) to payload
// ones.
func WrapBytes(data []byte) *Payload {
	p := payloadGet()
	p.size = int64(len(data))
	p.data = data
	p.eager = true
	p.wrapped = true
	if p.size > 0 {
		p.extents = append(p.extents, extent{off: 0, n: p.size, kind: extMat}) // into the header's own room
	}
	return p
}

func payloadGet() *Payload {
	payloadFree.mu.Lock()
	var p *Payload
	if l := payloadFree.list; len(l) > 0 {
		p = l[len(l)-1]
		l[len(l)-1] = nil
		payloadFree.list = l[:len(l)-1]
	}
	payloadFree.mu.Unlock()
	if p == nil {
		// Pool-miss cold path, one header at a time: most die unreleased with
		// their machine, and a slab would keep their backing bytes reachable.
		p = &Payload{}
		p.extents = p.room[:0]
	}
	return p
}

// Release drops the payload's content — chunk references, pooled backing —
// and recycles the header. The payload must not be used afterwards.
func (p *Payload) Release() {
	for i := range p.extents {
		if p.extents[i].kind == extRef {
			p.extents[i].ch.release()
		}
	}
	p.extents = p.extents[:0]
	if p.data != nil && !p.wrapped {
		BackingPut(p.data)
	}
	p.data = nil
	p.wrapped = false
	p.eager = false
	p.size = 0
	payloadFree.mu.Lock()
	payloadFree.list = append(payloadFree.list, p)
	payloadFree.mu.Unlock()
}

// Size reports the payload length in bytes.
func (p *Payload) Size() int64 { return p.size }

// Eager reports whether the payload is in sticky materialized mode.
func (p *Payload) Eager() bool { return p.eager }

// allMat reports whether the whole payload is one materialized extent, the
// steady state after Bytes().
func (p *Payload) allMat() bool {
	return len(p.extents) == 1 && p.extents[0].kind == extMat
}

// Bytes materializes the payload and returns its backing slice. Zero
// ranges are cleared, referenced chunks are copied in (and released), and
// the payload collapses to one materialized extent, so the returned slice
// is the content and writes through it are visible to later transfers.
// Call it again after any transfer into the payload to re-synchronize.
func (p *Payload) Bytes() []byte {
	if p.size == 0 || p.allMat() {
		return p.data
	}
	fresh := false
	if p.data == nil {
		p.data = BackingGet(p.size) // zeroed
		fresh = true
	}
	for i := range p.extents {
		e := &p.extents[i]
		switch e.kind {
		case extZero:
			if !fresh {
				zeroFill(p.data[e.off : e.off+e.n])
			}
		case extRef:
			copy(p.data[e.off:e.off+e.n], e.ch.data[e.chOff:e.chOff+e.n])
			e.ch.release()
			e.ch = nil
		}
	}
	p.extents = append(p.extents[:0], extent{off: 0, n: p.size, kind: extMat}) // appends into retained capacity: extents is non-empty for any size > 0
	return p.data
}

// MakeEager materializes the payload and pins it in eager mode: every
// subsequent transfer into it lands as real bytes immediately, so the
// returned slice stays current without re-calling Bytes(). Queue rings and
// control regions, whose bytes device models parse continuously, use this.
func (p *Payload) MakeEager() []byte {
	p.eager = true
	return p.Bytes()
}

// ReadAt copies payload content [off, off+len(dst)) into dst. Zero ranges
// scan-then-clear dst (recycled scratch is usually already zero); nothing
// in the payload materializes.
func (p *Payload) ReadAt(dst []byte, off int64) {
	n := int64(len(dst))
	p.check(off, n)
	for i := p.findIdx(off); i < len(p.extents) && p.extents[i].off < off+n; i++ {
		e := &p.extents[i]
		a, b := clip(e, off, n)
		d := dst[a-off : b-off]
		switch e.kind {
		case extZero:
			zeroFill(d)
		case extMat:
			copy(d, p.data[a:b])
		case extRef:
			copy(d, e.ch.data[e.chOff+a-e.off:e.chOff+b-e.off])
		}
	}
}

// WriteAt stores src as payload content at off. Eager payloads take the
// bytes directly; lazy ones record a zero extent when src scans as zero,
// or snapshot it into a fresh chunk otherwise.
func (p *Payload) WriteAt(src []byte, off int64) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	p.check(off, n)
	if p.eager {
		copy(p.Bytes()[off:off+n], src)
		return
	}
	var seg extent
	if AllZero(src) {
		seg = extent{off: off, n: n, kind: extZero}
	} else {
		ch := chunkGet(n)
		copy(ch.data, src)
		seg = extent{off: off, n: n, kind: extRef, ch: ch}
	}
	p.replaceRange(off, n, seg)
}

// SetZero makes [off, off+n) read as zeros.
func (p *Payload) SetZero(off, n int64) {
	if n == 0 {
		return
	}
	p.check(off, n)
	if p.eager {
		zeroFill(p.data[off : off+n])
		return
	}
	if e := &p.extents[p.findIdx(off)]; e.kind == extZero && off+n <= e.off+e.n {
		return // already zero: a never-written block lands in an untouched buffer
	}
	p.replaceRange(off, n, extent{off: off, n: n, kind: extZero})
}

// RangeZero reports whether [off, off+n) reads as all zeros. The check is
// content-based — materialized and chunk bytes are scanned — so it gives
// the same answer in lazy and eager modes.
func (p *Payload) RangeZero(off, n int64) bool {
	if n == 0 {
		return true
	}
	p.check(off, n)
	for i := p.findIdx(off); i < len(p.extents) && p.extents[i].off < off+n; i++ {
		e := &p.extents[i]
		a, b := clip(e, off, n)
		switch e.kind {
		case extMat:
			if !AllZero(p.data[a:b]) {
				return false
			}
		case extRef:
			if !AllZero(e.ch.data[e.chOff+a-e.off : e.chOff+b-e.off]) {
				return false
			}
		}
	}
	return true
}

// PayloadCopy transfers n bytes of content from src at srcOff to dst at
// dstOff. Into an eager destination it degenerates to the historical byte
// copy; into a lazy one it moves descriptors — zero ranges propagate as
// zero, chunk references are shared, and materialized source bytes are
// snapshotted once. Source segments are gathered before the destination
// changes, so overlapping self-copies are safe.
//
// This is the data plane's per-granule copy between payloads — every DMA
// machine but the SSD store's (StoreCells, LoadCells) lands here — so it is
// a hot-path root in its own right, independent of which machines currently
// reach it.
func PayloadCopy(dst *Payload, dstOff int64, src *Payload, srcOff, n int64) {
	if n == 0 {
		return
	}
	src.check(srcOff, n)
	dst.check(dstOff, n)
	if dst.eager {
		src.ReadAt(dst.Bytes()[dstOff:dstOff+n], srcOff)
		return
	}
	var segbuf [8]extent
	segs := src.gather(segbuf[:0], srcOff, n, dstOff)
	dst.replaceRange(dstOff, n, segs...)
}

// gather collects src content over [srcOff, srcOff+n) as extents
// positioned at destination offsets (srcOff maps to dstOff). Ref extents
// are retained; materialized ranges scan for zero and otherwise snapshot
// into fresh chunks, so the result is independent of src.
func (src *Payload) gather(out []extent, srcOff, n, dstOff int64) []extent {
	rel := dstOff - srcOff
	for i := src.findIdx(srcOff); i < len(src.extents) && src.extents[i].off < srcOff+n; i++ {
		e := &src.extents[i]
		a, b := clip(e, srcOff, n)
		// The appends below fill the caller's stack buffer ([8]extent in
		// PayloadCopy); they spill to the heap only when the source range
		// spans more than eight extents. Payloads stay fully merged (see
		// replaceRange), so that takes eight content boundaries in one copy.
		switch e.kind {
		case extZero:
			out = append(out, extent{off: a + rel, n: b - a, kind: extZero})
		case extMat:
			if seg := src.data[a:b]; AllZero(seg) {
				out = append(out, extent{off: a + rel, n: b - a, kind: extZero})
			} else {
				ch := chunkGet(b - a)
				copy(ch.data, seg)
				out = append(out, extent{off: a + rel, n: b - a, kind: extRef, ch: ch})
			}
		case extRef:
			e.ch.retain()
			out = append(out, extent{off: a + rel, n: b - a, kind: extRef, ch: e.ch, chOff: e.chOff + a - e.off})
		}
	}
	return out
}

// replaceRange substitutes the extent coverage of [off, off+n) with repl
// (already positioned at absolute offsets; compacted in place), releasing
// references the replaced coverage held.
//
// The list is fully merged — no two adjacent extents are mergeable — before
// and after every call (NewPayload, Bytes and replaceRange are its only
// writers), so a splice can create mergeable pairs only at its own seams:
// inside repl, between repl and the piece or extent before it, and between
// repl and the piece or extent after it. Its cost is therefore the extents
// it overlaps plus one move of the list's tail when the extent count
// changes, never a pass over the whole list.
func (p *Payload) replaceRange(off, n int64, repl ...extent) {
	// First extent overlapping off.
	i := p.findIdx(off)
	var head, tail extent
	hasHead, hasTail := false, false
	if e := p.extents[i]; e.off < off {
		head = e
		head.n = off - e.off
		hasHead = true
	}
	// Extents wholly inside the replaced range.
	j := i
	for j < len(p.extents) && p.extents[j].off+p.extents[j].n <= off+n {
		j++
	}
	if j < len(p.extents) && p.extents[j].off < off+n {
		t := p.extents[j]
		d := off + n - t.off
		tail = t
		tail.off += d
		tail.n -= d
		if tail.kind == extRef {
			tail.chOff += d
		}
		hasTail = true
		j++
	}
	// Reference accounting: each consumed ref extent carries one reference.
	// An extent surviving as exactly one trimmed piece keeps it; one that
	// splits into head AND tail needs a second; one fully replaced drops it.
	for k := i; k < j; k++ {
		e := &p.extents[k]
		if e.kind != extRef {
			continue
		}
		pieces := 0
		if k == i && hasHead {
			pieces++
		}
		if k == j-1 && hasTail {
			pieces++
		}
		switch pieces {
		case 0:
			e.ch.release()
		case 2:
			e.ch.retain()
		}
	}
	// Merge the seams. A trimmed piece stays unmergeable with its outer
	// neighbor, so the window is: extent or head before, repl, tail or
	// extent after. [lo, hi) is the run of old extents the result rewrites.
	w := 0
	for k := 1; k < len(repl); k++ {
		if !repl[w].absorb(repl[k]) {
			w++
			repl[w] = repl[k]
		}
	}
	repl = repl[:w+1]
	last := &repl[w]
	lo, hi := i, j
	if hasHead {
		if head.absorb(repl[0]) {
			repl[0], hasHead = head, false
		}
	} else if i > 0 {
		if prev := p.extents[i-1]; prev.absorb(repl[0]) {
			repl[0] = prev
			lo--
		}
	}
	if hasTail {
		if last.absorb(tail) {
			hasTail = false
		}
	} else if j < len(p.extents) && last.absorb(p.extents[j]) {
		hi++
	}
	// Splice: [0,lo) + head? + repl + tail? + [hi,len).
	mid := lo + len(repl)
	if hasHead {
		mid++
	}
	if hasTail {
		mid++
	}
	old := p.extents
	need := mid + len(old) - hi
	out, grow := old, cap(old) < need
	if grow {
		// Growth doubles the retained capacity, so it amortizes to O(1) per
		// splice and stops at the payload's fragmentation high-water mark.
		out = make([]extent, need, max(need, 2*cap(old)))
		copy(out, old[:lo])
	} else {
		out = old[:need]
	}
	if grow || mid != hi {
		copy(out[mid:], old[hi:])
	}
	if hasHead {
		out[lo] = head
		lo++
	}
	lo += copy(out[lo:], repl)
	if hasTail {
		out[lo] = tail
	}
	p.extents = out
}

// absorb extends a over b when b continues it — zeros always, materialized
// ranges always (they index the same backing), references when b continues
// a's chunk (dropping the duplicate reference) — and reports whether it did.
// b must start where a ends.
func (a *extent) absorb(b extent) bool {
	if a.kind != b.kind || (a.kind == extRef && (a.ch != b.ch || a.chOff+a.n != b.chOff)) {
		return false
	}
	a.n += b.n
	if a.kind == extRef {
		b.ch.release()
	}
	return true
}

// findIdx locates the first extent overlapping off (binary search — cache
// and tier payloads fragment into many extents under scattered fills).
func (p *Payload) findIdx(off int64) int {
	i, j := 0, len(p.extents)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.extents[h].off+p.extents[h].n <= off {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// clip intersects extent e with [off, off+n), returning absolute [a, b).
func clip(e *extent, off, n int64) (int64, int64) {
	a, b := e.off, e.off+e.n
	if a < off {
		a = off
	}
	if b > off+n {
		b = off + n
	}
	return a, b
}

func (p *Payload) check(off, n int64) {
	if off < 0 || n < 0 || off+n > p.size {
		panic(fmt.Sprintf("mem: payload range [%d,+%d) out of bounds (size %d)", off, n, p.size))
	}
}

// AllZero reports whether b contains only zero bytes, using a vectorized
// block compare against a reference page.
func AllZero(b []byte) bool {
	for len(b) > 0 {
		chunk := b
		if len(chunk) > len(zeroRef) {
			chunk = chunk[:len(zeroRef)]
		}
		if !bytes.Equal(chunk, zeroRef[:len(chunk)]) {
			return false
		}
		b = b[len(chunk):]
	}
	return true
}

// zeroFill clears b, scanning first: recycled destinations are usually
// already zero, and the vectorized compare is cheaper than dirtying every
// cache line with an unconditional clear.
func zeroFill(b []byte) {
	for len(b) > 0 {
		chunk := b
		if len(chunk) > len(zeroRef) {
			chunk = chunk[:len(zeroRef)]
		}
		if !bytes.Equal(chunk, zeroRef[:len(chunk)]) {
			clear(chunk)
		}
		b = b[len(chunk):]
	}
}
