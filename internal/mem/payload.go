package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// PageBytes is the content granule: a lazy payload keeps one Cell per page
// of this size, as ssd.Store does per 4 KiB flash page and a PRP entry
// names one host page.
const PageBytes = 4096

// Payload is the content of a simulated memory range, carried by reference
// instead of by bytes. It has one of two forms, never both:
//
//   - lazy: one Cell per page (the last page may be short). The cell slice
//     stays nil until the first non-zero byte lands, so a payload nothing
//     writes reads as zeros and owns nothing;
//   - eager: the bytes themselves. Bytes turns a lazy payload eager for good.
//
// Transfers into a lazy payload copy cells and take references instead of
// moving bytes, so a simulation whose workloads never read their data moves
// no memory at all while remaining bit-exact for the ones that do.
//
// Payloads are not safe for concurrent use; like every other simulation
// structure they belong to one machine and run under its engine. The chunk
// and payload pools below are the only process-global state and take a
// mutex.
type Payload struct {
	size    int64
	page    int64  // PageBytes; smaller only in tests
	cells   []Cell // lazy form; nil while every byte is zero
	data    []byte // eager form
	eager   bool
	wrapped bool // data belongs to the caller; never pooled
}

// Chunk is an immutable span of content shared between cells by reference
// counting. Chunks are created full (a snapshot of source bytes) and
// recycled through a size-classed pool when the last reference drops; a
// chunk only one cell references may be written in place (Cell.sole).
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
// through cap, and headers point only into their own data slab. Chunks of up
// to 32 bytes (a kv stamp) are carved with their bytes inside the header's
// cache line, so a read that reaches the header has the bytes too.
// Page-sized and larger chunks are allocated singly: most chunks die with
// their machine unreleased, and a slab of those would stay resident for as
// long as one neighbour sat in this pool.
var chunkPool struct {
	mu      sync.Mutex
	classes [48][]*Chunk
	small   []smallChunk
	slabs   [carveBelow]struct {
		hdrs []Chunk
		data []byte
	}
}

type smallChunk struct {
	Chunk
	b [1 << smallBelow]byte
}

const (
	slabLen    = 64
	smallBelow = 5  // classes up to 1<<5 bytes sit in smallChunks
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
	if cls <= smallBelow {
		if len(chunkPool.small) == 0 {
			chunkPool.small = make([]smallChunk, slabLen)
		}
		c := &chunkPool.small[0]
		c.data = c.b[:size:size]
		chunkPool.small = chunkPool.small[1:]
		return &c.Chunk
	}
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

// payloadFree recycles payload headers. A parked header holds no cells and
// no bytes, so the pool keeps nothing else reachable.
var payloadFree struct {
	mu   sync.Mutex
	list []*Payload
}

// defaultEager is the process-wide payload mode: false propagates
// references (the zero-copy data plane), true makes every payload eager at
// birth: the byte plane, kept as the oracle the lazy≡eager tests and
// fuzzers compare against. Only they flip it.
var defaultEager atomic.Bool

// SetDefaultEager selects the payload mode for subsequently created
// payloads.
func SetDefaultEager(v bool) { defaultEager.Store(v) }

// DefaultEager reports the process-wide payload mode.
func DefaultEager() bool { return defaultEager.Load() }

// NewPayload creates a payload of the given size that reads as zeros: lazy
// and owning nothing, or eager over zeroed backing.
func NewPayload(size int64, eager bool) *Payload { return newPayload(size, PageBytes, eager) }

// newPayload is NewPayload with a page other than PageBytes, so tests can
// cross page seams with payloads of a few dozen bytes.
func newPayload(size, page int64, eager bool) *Payload {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative payload size %d", size))
	}
	p := payloadGet()
	p.size, p.page, p.eager = size, page, eager
	if eager {
		p.data = BackingGet(size)
	}
	return p
}

// WrapBytes builds an eager payload view over caller-owned bytes: content
// operations read and write the slice in place, and Release leaves it
// alone. It adapts byte-slice APIs (ring memory, test scratch) to payload
// ones.
func WrapBytes(data []byte) *Payload {
	p := payloadGet()
	p.size, p.page = int64(len(data)), PageBytes
	p.data, p.eager, p.wrapped = data, true, true
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
	}
	return p
}

// Release drops the payload's content — chunk references, pooled backing —
// and recycles the header. The payload must not be used afterwards.
func (p *Payload) Release() {
	for i := range p.cells {
		p.cells[i].drop()
	}
	if p.data != nil && !p.wrapped {
		BackingPut(p.data)
	}
	*p = Payload{}
	payloadFree.mu.Lock()
	payloadFree.list = append(payloadFree.list, p)
	payloadFree.mu.Unlock()
}

// Size reports the payload length in bytes.
func (p *Payload) Size() int64 { return p.size }

// Bytes returns the payload's content as its backing slice, turning a lazy
// payload eager for good: its cells are copied out and released. Every
// later transfer into the payload lands in that slice, and writes through
// the slice are its content.
func (p *Payload) Bytes() []byte {
	if p.eager {
		return p.data
	}
	p.data = BackingGet(p.size) // zeroed
	for i := range p.cells {
		if c := &p.cells[i]; c.ch != nil {
			copy(p.data[int64(i)*p.page+c.lo():], c.at(c.lo(), int64(c.n)))
			c.drop()
		}
	}
	p.cells, p.eager = nil, true
	return p.data
}

// ReadAt copies payload content [off, off+len(dst)) into dst. Zero ranges
// scan-then-clear dst (recycled scratch is usually already zero); nothing
// in the payload changes.
func (p *Payload) ReadAt(dst []byte, off int64) {
	p.check(off, int64(len(dst)))
	r := pages{p: p, page: p.page}
	r.read(dst, off)
}

// WriteAt stores src as payload content at off: into the bytes of an eager
// payload, into cells by content in a lazy one (see StoreCells).
func (p *Payload) WriteAt(src []byte, off int64) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	p.check(off, n)
	s := Payload{size: n, data: src, eager: true}
	r, sr := pages{p: p, page: p.page}, pages{p: &s, page: p.page}
	r.write(off, &sr, 0, n)
}

// SetZero makes [off, off+n) read as zeros.
func (p *Payload) SetZero(off, n int64) {
	if n == 0 {
		return
	}
	p.check(off, n)
	if !p.eager && p.cells == nil {
		return // already zero: a never-written block lands in an untouched buffer
	}
	z := Payload{size: n, page: p.page}
	r, zr := pages{p: p, page: p.page}, pages{p: &z, page: p.page}
	r.write(off, &zr, 0, n)
}

// RangeZero reports whether [off, off+n) reads as all zeros. The check is
// content-based, so it gives the same answer in both forms.
func (p *Payload) RangeZero(off, n int64) bool {
	if n == 0 {
		return true
	}
	p.check(off, n)
	if p.eager {
		return AllZero(p.data[off : off+n])
	}
	for pos := int64(0); pos < n && p.cells != nil; {
		i, a := (off+pos)/p.page, (off+pos)%p.page
		pn := min(p.page-a, n-pos)
		c := &p.cells[i]
		if lo, hi := c.part(a, pn); lo < hi && (c.within(a, pn) || !AllZero(c.at(a+lo, hi-lo))) {
			return false
		}
		pos += pn
	}
	return true
}

// PayloadCopy transfers n bytes of content from src at srcOff to dst at
// dstOff: every DMA between payloads lands here. Into an eager destination
// it is a byte copy; into a lazy one it copies cells (see pages.write): zero
// pages stay empty and chunk windows are shared. A copy within one payload
// may overlap.
func PayloadCopy(dst *Payload, dstOff int64, src *Payload, srcOff, n int64) {
	if n == 0 {
		return
	}
	src.check(srcOff, n)
	dst.check(dstOff, n)
	if dst == src && !dst.eager {
		// A page the copy writes may hold bytes it has yet to read, in the
		// chunk the write lands in: stage the source in a payload of its
		// own, on the same page seams.
		a := srcOff % src.page
		tmp := newPayload(a+n, src.page, false)
		PayloadCopy(tmp, a, src, srcOff, n)
		PayloadCopy(dst, dstOff, tmp, a, n)
		tmp.Release()
		return
	}
	s, r := pages{p: src, page: src.page}, pages{p: dst, page: dst.page}
	r.write(dstOff, &s, srcOff, n)
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
		n := min(len(b), len(zeroRef))
		if !bytes.Equal(b[:n], zeroRef[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// zeroFill clears b, scanning first: recycled destinations are usually
// already zero, and the vectorized compare is cheaper than dirtying every
// cache line with an unconditional clear.
func zeroFill(b []byte) {
	for len(b) > 0 {
		n := min(len(b), len(zeroRef))
		if !AllZero(b[:n]) {
			clear(b[:n])
		}
		b = b[n:]
	}
}
