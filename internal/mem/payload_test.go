package mem

import (
	"bytes"
	"testing"
	"time"
)

// lcg is a tiny deterministic generator for test patterns.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func pattern(seed uint64, n int) []byte {
	l := lcg(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(l.next())
	}
	return b
}

// TestAllZero covers the stride boundaries of the vectorized scan: lengths
// around the block compare's reference page and the byte tail, with the
// nonzero byte planted at every position.
func TestAllZero(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 63, 64, 65, 127, 128, 200} {
		b := make([]byte, n)
		if !AllZero(b) {
			t.Errorf("AllZero(len %d zeros) = false", n)
		}
		for i := 0; i < n; i++ {
			b[i] = 1
			if AllZero(b) {
				t.Errorf("AllZero missed a nonzero byte at %d of %d", i, n)
			}
			b[i] = 0
		}
	}
}

func TestPayloadBornZero(t *testing.T) {
	p := NewPayload(4096, false)
	defer p.Release()
	if !p.RangeZero(0, 4096) {
		t.Fatal("lazy payload not born zero")
	}
	dst := pattern(1, 4096) // dirty destination: ReadAt must clear it
	p.ReadAt(dst, 0)
	if !AllZero(dst) {
		t.Fatal("ReadAt of zero payload left nonzero bytes")
	}
	if p.data != nil {
		t.Fatal("reading a zero payload materialized it")
	}
	if !AllZero(p.Bytes()) {
		t.Fatal("Bytes() of zero payload not zero")
	}
}

func TestPayloadWriteReadRoundTrip(t *testing.T) {
	p := NewPayload(8192, false)
	defer p.Release()
	src := pattern(2, 1000)
	p.WriteAt(src, 500)
	if p.RangeZero(500, 1000) {
		t.Fatal("RangeZero true over written pattern")
	}
	if !p.RangeZero(0, 500) || !p.RangeZero(1500, 8192-1500) {
		t.Fatal("RangeZero false outside written range")
	}
	got := make([]byte, 1000)
	p.ReadAt(got, 500)
	if !bytes.Equal(got, src) {
		t.Fatal("ReadAt does not round-trip WriteAt")
	}
	// Straddling read: zeros + pattern + zeros.
	all := make([]byte, 8192)
	p.ReadAt(all, 0)
	want := make([]byte, 8192)
	copy(want[500:], src)
	if !bytes.Equal(all, want) {
		t.Fatal("full ReadAt mismatch")
	}
	if !bytes.Equal(p.Bytes(), want) {
		t.Fatal("Bytes() mismatch")
	}
}

// TestPayloadCopySnapshot checks the copy is a snapshot: mutating the source
// after the transfer must not change the destination.
func TestPayloadCopySnapshot(t *testing.T) {
	src := NewPayload(4096, false)
	dst := NewPayload(4096, false)
	defer src.Release()
	defer dst.Release()
	a := pattern(3, 4096)
	src.WriteAt(a, 0)
	PayloadCopy(dst, 0, src, 0, 4096)
	src.WriteAt(pattern(4, 4096), 0)
	got := make([]byte, 4096)
	dst.ReadAt(got, 0)
	if !bytes.Equal(got, a) {
		t.Fatal("destination changed when source was overwritten after the copy")
	}
}

// TestPayloadCopyMaterializedSnapshot is the same but with a source that was
// materialized (Bytes) and mutated in place before the next copy.
func TestPayloadCopyMaterializedSnapshot(t *testing.T) {
	src := NewPayload(1024, false)
	dst := NewPayload(1024, false)
	defer src.Release()
	defer dst.Release()
	sb := src.Bytes()
	copy(sb, pattern(5, 1024))
	first := append([]byte(nil), sb...)
	PayloadCopy(dst, 0, src, 0, 1024)
	copy(sb, pattern(6, 1024)) // in-place rewrite of the materialized source
	got := make([]byte, 1024)
	dst.ReadAt(got, 0)
	if !bytes.Equal(got, first) {
		t.Fatal("destination aliased the source's materialized bytes")
	}
}

func TestPayloadZeroCopyStaysLazy(t *testing.T) {
	src := NewPayload(1<<20, false)
	dst := NewPayload(1<<20, false)
	defer src.Release()
	defer dst.Release()
	PayloadCopy(dst, 0, src, 0, 1<<20)
	if dst.data != nil || src.data != nil {
		t.Fatal("zero-to-zero copy materialized a payload")
	}
	if !dst.RangeZero(0, 1<<20) {
		t.Fatal("copied zeros do not read as zero")
	}
}

func TestPayloadSelfCopy(t *testing.T) {
	for _, d := range []struct {
		name           string
		dstOff, srcOff int64
	}{
		{"forward-overlap", 512, 0},
		{"backward-overlap", 0, 512},
		{"aligned", 2048, 0},
	} {
		p := NewPayload(4096, false)
		ref := make([]byte, 4096)
		copy(ref, pattern(7, 4096))
		p.WriteAt(ref, 0)
		copy(ref[d.dstOff:d.dstOff+1024], append([]byte(nil), ref[d.srcOff:d.srcOff+1024]...))
		PayloadCopy(p, d.dstOff, p, d.srcOff, 1024)
		got := make([]byte, 4096)
		p.ReadAt(got, 0)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: self-copy mismatch", d.name)
		}
		p.Release()
	}
}

// TestPayloadChunkSharing checks reference counting through fan-out: one
// source shared by two destinations survives source release and single
// destination release.
func TestPayloadChunkSharing(t *testing.T) {
	src := NewPayload(4096, false)
	a := pattern(8, 4096)
	src.WriteAt(a, 0)
	d1 := NewPayload(4096, false)
	d2 := NewPayload(4096, false)
	PayloadCopy(d1, 0, src, 0, 4096)
	PayloadCopy(d2, 0, src, 0, 4096)
	src.Release()
	d1.Release()
	got := make([]byte, 4096)
	d2.ReadAt(got, 0)
	if !bytes.Equal(got, a) {
		t.Fatal("surviving destination lost content after peer releases")
	}
	d2.Release()
}

// TestPayloadPartialOverwrite: overwriting the middle of a shared page must
// keep the rest of its content and the refcounts right.
func TestPayloadPartialOverwrite(t *testing.T) {
	src := NewPayload(4096, false)
	defer src.Release()
	a := pattern(9, 4096)
	src.WriteAt(a, 0)
	dst := NewPayload(4096, false)
	PayloadCopy(dst, 0, src, 0, 4096)
	mid := pattern(10, 1024)
	dst.WriteAt(mid, 1536) // copies the shared page out before writing its middle
	want := append([]byte(nil), a...)
	copy(want[1536:], mid)
	got := make([]byte, 4096)
	dst.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("partial overwrite of shared page mismatch")
	}
	dst.Release() // must not over-release the split chunk
	got2 := make([]byte, 4096)
	src.ReadAt(got2, 0)
	if !bytes.Equal(got2, a) {
		t.Fatal("source content damaged by destination release")
	}
}

func TestWrapBytes(t *testing.T) {
	buf := pattern(11, 1024)
	orig := append([]byte(nil), buf...)
	p := WrapBytes(buf)
	got := make([]byte, 1024)
	p.ReadAt(got, 0)
	if !bytes.Equal(got, orig) {
		t.Fatal("wrapped payload does not read the caller's bytes")
	}
	// Writes through the payload land in the caller's slice immediately.
	p.WriteAt([]byte{0xAA, 0xBB}, 10)
	if buf[10] != 0xAA || buf[11] != 0xBB {
		t.Fatal("write through wrapped payload not visible in caller slice")
	}
	p.Release()
	if buf[10] != 0xAA {
		t.Fatal("Release clobbered caller-owned bytes")
	}
}

// TestMakeEagerSticky: Bytes, which the buffers' MakeEager calls, pins a
// payload eager, so later writes and zeros land in the slice it returned.
func TestMakeEagerSticky(t *testing.T) {
	p := NewPayload(4096, false)
	defer p.Release()
	a := pattern(12, 4096)
	p.WriteAt(a, 0)
	pb := p.Bytes()
	if !p.eager || p.cells != nil {
		t.Fatal("Bytes left the payload lazy")
	}
	p.SetZero(0, 100)
	p.WriteAt([]byte{1, 2}, 200)
	clear(a[:100])
	copy(a[200:], []byte{1, 2})
	if !bytes.Equal(pb, a) {
		t.Fatal("writes after Bytes not visible through its slice")
	}
}

// TestEagerLazyEquivalence drives the same random operation sequence
// against an eager and a lazy payload pair and compares final content.
func TestEagerLazyEquivalence(t *testing.T) {
	const size = 1 << 16
	run := func(eager bool) []byte {
		gen := lcg(1234)
		p := NewPayload(size, eager)
		q := NewPayload(size, eager)
		defer p.Release()
		defer q.Release()
		for i := 0; i < 200; i++ {
			off := int64(gen.next() % size)
			n := int64(gen.next() % (size / 4))
			if off+n > size {
				n = size - off
			}
			switch gen.next() % 5 {
			case 0:
				p.WriteAt(pattern(gen.next(), int(n)), off)
			case 1:
				p.SetZero(off, n)
			case 2:
				PayloadCopy(q, off, p, off, n)
			case 3:
				PayloadCopy(p, off, q, off, n)
			case 4:
				dstOff := int64(gen.next() % size)
				if dstOff+n > size {
					n = size - dstOff
				}
				PayloadCopy(p, dstOff, p, off, n)
			}
		}
		out := make([]byte, 2*size)
		p.ReadAt(out[:size], 0)
		q.ReadAt(out[size:], 0)
		return out
	}
	lazy := run(false)
	eager := run(true)
	if !bytes.Equal(lazy, eager) {
		t.Fatal("eager and lazy planes diverged under random op sequence")
	}
}

// TestSetZeroOverZeroIsNoOp: zeroing a range of empty pages must leave
// every cell alone and allocate nothing, in the middle of a written payload
// as well as on an untouched one.
func TestSetZeroOverZeroIsNoOp(t *testing.T) {
	untouched := NewPayload(64<<10, false)
	defer untouched.Release()
	p := NewPayload(64<<10, false)
	defer p.Release()
	block := bytes.Repeat([]byte{7}, 4096)
	p.WriteAt(block, 0)
	p.WriteAt(block, 60<<10)
	before := append([]Cell(nil), p.cells...)
	if a := testing.AllocsPerRun(100, func() {
		untouched.SetZero(0, 64<<10)
		p.SetZero(4096, 4096)
		p.SetZero(8192, 52<<10)
		p.SetZero(56<<10, 4096)
	}); a != 0 {
		t.Fatalf("%v allocs zeroing an already-zero range, want 0", a)
	}
	if untouched.cells != nil {
		t.Fatal("zeroing an untouched payload gave it cells")
	}
	for i := range before {
		if p.cells[i] != before[i] {
			t.Fatalf("cell %d changed: %+v, was %+v", i, p.cells[i], before[i])
		}
	}
	p.SetZero(0, 8192) // reaches into the first page: must take effect
	if !p.RangeZero(0, 60<<10) || p.RangeZero(60<<10, 4096) {
		t.Fatal("SetZero across a written page and an empty one did not zero exactly its range")
	}
	if !p.cells[0].Empty() {
		t.Fatal("a page zeroed whole still holds a window")
	}
}

// TestSetZeroUntouchedReturnsAtOnce: SetZero over a lazy payload nothing
// was ever written to returns without walking its pages, whatever its size.
// Every cam-read-4k I/O reads a never-written block into such a buffer, and
// walking the page loop there costs the workload about a quarter more wall
// time (DESIGN.md §13). A 128 GiB payload has 2^25 pages: the walk takes
// about a second, the early return well under a microsecond, so the bound
// is loose; up to three calls are tried because interference on a shared
// host only ever adds time.
func TestSetZeroUntouchedReturnsAtOnce(t *testing.T) {
	const bound = 50 * time.Millisecond
	p := NewPayload(1<<37, false)
	defer p.Release()
	fastest := time.Hour
	for i := 0; i < 3 && fastest > bound; i++ {
		start := time.Now()
		p.SetZero(0, p.Size())
		fastest = min(fastest, time.Since(start))
	}
	if fastest > bound {
		t.Fatalf("SetZero over an untouched 128 GiB payload took %v, want it to return at once", fastest)
	}
	if p.cells != nil {
		t.Fatal("zeroing an untouched payload gave it cells")
	}
}

// TestBytesTracksLaterTransfers: Bytes turns a payload eager for good, so a
// PayloadCopy and a LoadCells into it afterwards land in the slice Bytes
// already returned.
func TestBytesTracksLaterTransfers(t *testing.T) {
	p := NewPayload(2*testPage, false)
	defer p.Release()
	pb := p.Bytes()
	a, b := pattern(13, testPage), pattern(14, testPage)
	src := NewPayload(testPage, false)
	defer src.Release()
	src.WriteAt(a, 0)
	PayloadCopy(p, 0, src, 0, testPage)
	var c Cell
	storePage(&c, b)
	LoadCells(p, testPage, []*Cell{&c}, testPage, 0, testPage)
	c.drop()
	if !bytes.Equal(pb[:testPage], a) {
		t.Error("a PayloadCopy after Bytes is not visible through the slice it returned")
	}
	if !bytes.Equal(pb[testPage:], b) {
		t.Error("a LoadCells after Bytes is not visible through the slice it returned")
	}
}

// TestChunkSlabNoAlias: sub-page chunks are carved from a shared slab, so
// each one's slice must end at its own last byte — cap == len == class size
// — and filling one must leave the chunks carved beside it alone, with their
// bytes in a byte slab (48) or beside their header (24). Page-sized chunks
// are not carved (they would pin their slab from the pool).
func TestChunkSlabNoAlias(t *testing.T) {
	for _, n := range []int64{48, 24} {
		chunkSlabNoAlias(t, n)
	}
	big := chunkGet(4096)
	if cap(big.data) != 4096 {
		t.Fatalf("page chunk has cap %d", cap(big.data))
	}
	big.release()
}

func chunkSlabNoAlias(t *testing.T, n int64) {
	class := 1 << chunkClass(n)
	var cs [slabLen + 2]*Chunk
	for i := range cs {
		cs[i] = chunkGet(n)
		if int64(len(cs[i].data)) != n || cap(cs[i].data) != class {
			t.Fatalf("chunk %d: len %d cap %d, want %d and the class size %d", i, len(cs[i].data), cap(cs[i].data), n, class)
		}
	}
	// Write each chunk to the very end of what its slice can reach.
	for i, c := range cs {
		full := c.data[:cap(c.data)]
		for j := range full {
			full[j] = byte(i + 1)
		}
	}
	for i, c := range cs {
		for j, b := range c.data[:cap(c.data)] {
			if b != byte(i+1) {
				t.Fatalf("chunk %d byte %d = %d after its neighbours were filled, want %d", i, j, b, i+1)
			}
		}
		c.release()
	}
}
