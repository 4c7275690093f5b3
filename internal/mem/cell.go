package mem

import "fmt"

// Cell is the content of one fixed-size page kept outside any payload: a
// window of one chunk placed somewhere in the page, with zeros around it.
// The zero Cell is a page of zeros. ssd.Store keeps one per 4 KiB page.
//
// A cell is non-empty exactly when its page holds a non-zero byte, so which
// pages exist is decided by content alone and is the same on the lazy and
// eager planes. A non-empty cell holds one reference on its chunk, and
// StoreCells writes that chunk in place only while the reference is its
// sole one: a chunk anything else shares is copy-on-write.
type Cell struct {
	ch    *Chunk
	chOff int64 // window start in ch.data
	off   int32 // window start in the page
	n     int32 // window length; 0 exactly when ch is nil
}

// Empty reports whether the page reads as all zeros.
func (c *Cell) Empty() bool { return c.ch == nil }

func (c *Cell) lo() int64 { return int64(c.off) }
func (c *Cell) hi() int64 { return int64(c.off) + int64(c.n) }

// at is the window's bytes for page range [a, a+n), which it must cover.
func (c *Cell) at(a, n int64) []byte {
	i := c.chOff + a - c.lo()
	return c.ch.data[i : i+n]
}

// covers reports whether the window holds all of page range [a, a+n).
func (c *Cell) covers(a, n int64) bool { return c.lo() <= a && a+n <= c.hi() }

// within reports whether page range [a, a+n) holds all of the window.
func (c *Cell) within(a, n int64) bool { return a <= c.lo() && c.hi() <= a+n }

func (c *Cell) set(ch *Chunk, chOff, off, n int64) {
	if c.ch != nil {
		c.ch.release()
	}
	*c = Cell{ch: ch, chOff: chOff, off: int32(off), n: int32(n)}
}

func (c *Cell) drop() {
	if c.ch != nil {
		c.ch.release()
	}
	*c = Cell{}
}

// sole reports whether a non-empty cell may write its chunk in place:
// nothing else references it, and it is no larger than a page. The second
// half keeps a page from pinning the rest of a snapshot its neighbours have
// moved off.
func (c *Cell) sole(pageBytes int64) bool {
	return c.ch.refs == 1 && int64(len(c.ch.data)) <= pageBytes
}

// own makes a non-empty cell writable over page range [a, a+n): a sole
// chunk whose window covers the range stays as it is; anything else is
// copied into a private chunk spanning the whole page.
func (c *Cell) own(pageBytes, a, n int64) {
	if c.sole(pageBytes) && c.covers(a, n) {
		return
	}
	ch := chunkGet(pageBytes)
	clear(ch.data[:c.lo()])
	copy(ch.data[c.lo():c.hi()], c.at(c.lo(), int64(c.n)))
	clear(ch.data[c.hi():])
	c.set(ch, 0, 0, pageBytes)
}

// StoreCells writes n bytes of src at srcOff into consecutive pages of
// pageBytes, starting off bytes into the page of cells[0]. Each page takes
// its piece by content:
//
//   - all zeros: the piece reads as zeros afterwards, and a page left with
//     no non-zero byte becomes empty (an empty page stays empty);
//   - one chunk window with zeros around it: the page shares the chunk
//     (a reference, no bytes move);
//   - anything else is bytes. They are copied in place when the page's
//     chunk is its own (nothing else references it, and it is no larger
//     than a page) and its window covers the piece. Otherwise they are
//     snapshotted, once per call, into one chunk the pages take windows of.
//
// A piece that would leave two non-zero spans in one page, or land in a
// chunk something else references, first copies that page into a private
// chunk of its own.
func StoreCells(cells []*Cell, pageBytes, off int64, src *Payload, srcOff, n int64) {
	src.check(srcOff, n)
	if off < 0 || off >= pageBytes || off+n > int64(len(cells))*pageBytes {
		panic(fmt.Sprintf("mem: cell range [%d,+%d) outside %d pages of %d", off, n, len(cells), pageBytes))
	}
	var snap *Chunk
	var snapAt int64 // the call's byte snap.data[0] holds
	// a is where page i's piece starts in it: off for the first, 0 after.
	for pos, i, a := int64(0), 0, off; pos < n; i, a = i+1, 0 {
		pn := min(pageBytes-a, n-pos)
		s := srcOff + pos
		c := cells[i]
		switch seg := src.classify(s, pn); seg.kind {
		case extZero:
			c.storeZero(pageBytes, a, pn)
		case extRef:
			c.storeRef(pageBytes, a, pn, a+seg.off-s, seg)
		default:
			switch {
			case c.ch != nil && c.sole(pageBytes) && c.covers(a, pn):
				src.ReadAt(c.at(a, pn), s)
			case c.ch == nil || c.within(a, pn):
				if snap == nil {
					snap, snapAt = chunkGet(n-pos), pos
				} else {
					snap.retain()
				}
				src.ReadAt(snap.data[pos-snapAt:][:pn], s)
				c.set(snap, pos-snapAt, a, pn)
			default:
				c.own(pageBytes, a, pn)
				src.ReadAt(c.at(a, pn), s)
			}
		}
		pos += pn
	}
}

// storeZero makes page range [a, a+n) read as zeros.
func (c *Cell) storeZero(pageBytes, a, n int64) {
	switch {
	case c.ch == nil || a+n <= c.lo() || a >= c.hi():
		return
	case c.within(a, n):
		c.drop()
		return
	case a <= c.lo():
		d := a + n - c.lo()
		c.chOff += d
		c.off += int32(d)
		c.n -= int32(d)
	case a+n >= c.hi():
		c.n = int32(a - c.lo())
	default:
		c.own(pageBytes, a, n)
		clear(c.at(a, n))
	}
	if AllZero(c.at(c.lo(), int64(c.n))) {
		c.drop()
	}
}

// storeRef writes page range [a, a+n) as the chunk window seg, placed at
// page offset wa, with zeros around it: shared when the range holds all the
// page had, copied otherwise.
func (c *Cell) storeRef(pageBytes, a, n, wa int64, seg extent) {
	if c.ch == nil || c.within(a, n) {
		seg.ch.retain()
		c.set(seg.ch, seg.chOff, wa, seg.n)
		return
	}
	c.own(pageBytes, a, n)
	d, r := c.at(a, n), wa-a
	clear(d[:r])
	copy(d[r:r+seg.n], seg.ch.data[seg.chOff:])
	clear(d[r+seg.n:])
}

// classify reports what src holds over [off, off+n): extZero for zeros only;
// extRef for one chunk window (clipped to the range, at source offsets) with
// zeros around it; extMat for anything else. It reads content, so it gives
// the same answer whether the bytes sit in chunks or in backing.
func (src *Payload) classify(off, n int64) extent {
	var win extent
	for i := src.findIdx(off); i < len(src.extents) && src.extents[i].off < off+n; i++ {
		e := &src.extents[i]
		a, b := clip(e, off, n)
		switch e.kind {
		case extMat:
			if !AllZero(src.data[a:b]) {
				return extent{kind: extMat}
			}
		case extRef:
			if AllZero(e.ch.data[e.chOff+a-e.off : e.chOff+b-e.off]) {
				continue
			}
			if win.ch != nil {
				return extent{kind: extMat}
			}
			win = extent{off: a, n: b - a, kind: extRef, ch: e.ch, chOff: e.chOff + a - e.off}
		}
	}
	if win.ch == nil {
		return extent{kind: extZero}
	}
	return win
}

// LoadCells reads n bytes of consecutive pages of pageBytes, starting off
// bytes into the page of cells[0], into dst at dstOff; a nil cell is a page
// of zeros. An eager destination gets the bytes, with zeros around each
// window; a lazy one gets the windows spliced in by reference, adjacent
// windows of one chunk and runs of zeros merging into one extent.
func LoadCells(dst *Payload, dstOff int64, cells []*Cell, pageBytes, off, n int64) {
	dst.check(dstOff, n)
	if off < 0 || off >= pageBytes || off+n > int64(len(cells))*pageBytes {
		panic(fmt.Sprintf("mem: cell range [%d,+%d) outside %d pages of %d", off, n, len(cells), pageBytes))
	}
	if !dst.eager {
		spliceCells(dst, dstOff, cells, pageBytes, off, n)
		return
	}
	data := dst.Bytes()[dstOff : dstOff+n]
	for pos, i, a := int64(0), 0, off; pos < n; i, a = i+1, 0 {
		pn := min(pageBytes-a, n-pos)
		c := cells[i]
		piece := data[pos : pos+pn]
		pos += pn
		lo, hi := c.part(a, pn)
		zeroFill(piece[:lo])
		if lo < hi {
			copy(piece[lo:hi], c.at(a+lo, hi-lo))
		}
		zeroFill(piece[hi:])
	}
}

// part is the window's part of page range [a, a+n), as [lo, hi) relative to
// a; lo == hi == n when none of it is (a nil cell included).
func (c *Cell) part(a, n int64) (lo, hi int64) {
	if c == nil || c.ch == nil {
		return n, n
	}
	return min(max(c.lo()-a, 0), n), min(max(c.hi()-a, 0), n)
}

// spliceCells is LoadCells into a lazy destination.
func spliceCells(dst *Payload, dstOff int64, cells []*Cell, pageBytes, off, n int64) {
	sp := splicer{dst: dst, start: dstOff}
	for pos, i, a := int64(0), 0, off; pos < n; i, a = i+1, 0 {
		pn := min(pageBytes-a, n-pos)
		c := cells[i]
		d := dstOff + pos
		pos += pn
		lo, hi := c.part(a, pn)
		if lo > 0 {
			sp.add(extent{off: d, n: lo, kind: extZero})
		}
		if lo < hi {
			c.ch.retain()
			sp.add(extent{off: d + lo, n: hi - lo, kind: extRef, ch: c.ch, chOff: c.chOff + a + lo - c.lo()})
		}
		if hi < pn {
			sp.add(extent{off: d + hi, n: pn - hi, kind: extZero})
		}
	}
	sp.flush()
}

// splicer batches extents bound for consecutive destination ranges of one
// payload, merging as it goes and splicing eight at a time.
type splicer struct {
	dst   *Payload
	start int64 // where segs[0] lands
	k     int
	segs  [8]extent
}

func (sp *splicer) add(e extent) {
	if sp.k > 0 && sp.segs[sp.k-1].absorb(e) {
		return
	}
	if sp.k == len(sp.segs) {
		sp.flush()
	}
	sp.segs[sp.k] = e
	sp.k++
}

func (sp *splicer) flush() {
	if sp.k == 0 {
		return
	}
	last := &sp.segs[sp.k-1]
	end := last.off + last.n
	if sp.k == 1 && last.kind == extZero {
		sp.dst.SetZero(sp.start, end-sp.start)
	} else {
		sp.dst.replaceRange(sp.start, end-sp.start, sp.segs[:sp.k]...)
	}
	sp.start, sp.k = end, 0
}
