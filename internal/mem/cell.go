package mem

import "fmt"

// Cell is the content of one page: a window of one chunk placed somewhere
// in the page, with zeros around it. The zero Cell is a page of zeros. A lazy
// Payload keeps one per page, and ssd.Store one per 4 KiB flash page.
//
// A cell is non-empty exactly when its page holds a non-zero byte, so which
// pages exist is decided by content alone and is the same on the lazy and
// eager planes. A non-empty cell holds one reference on its chunk, and a
// write lands in that chunk in place only while the reference is its sole
// one: a chunk anything else shares is copy-on-write.
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

// part is the window's part of page range [a, a+n), as [lo, hi) relative to
// a; lo == hi == n when none of it is (a nil cell included).
func (c *Cell) part(a, n int64) (lo, hi int64) {
	if c == nil || c.ch == nil {
		return n, n
	}
	return min(max(c.lo()-a, 0), n), min(max(c.hi()-a, 0), n)
}

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
// nothing else references it, and it is no larger than the page. The second
// half keeps a page from pinning the rest of a snapshot its neighbours have
// moved off.
func (c *Cell) sole(pl int64) bool {
	return c.ch.refs == 1 && int64(len(c.ch.data)) <= pl
}

// own makes a non-empty cell of a pl-byte page writable over page range
// [a, a+n): a sole chunk whose window covers the range stays as it is;
// anything else is copied into a private chunk spanning the whole page.
func (c *Cell) own(pl, a, n int64) {
	if c.sole(pl) && c.covers(a, n) {
		return
	}
	ch := chunkGet(pl)
	clear(ch.data[:c.lo()])
	copy(ch.data[c.lo():c.hi()], c.at(c.lo(), int64(c.n)))
	clear(ch.data[c.hi():])
	c.set(ch, 0, 0, pl)
}

// storeZero makes page range [a, a+n) of a pl-byte page read as zeros.
func (c *Cell) storeZero(pl, a, n int64) {
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
		c.own(pl, a, n)
		clear(c.at(a, n))
	}
	if AllZero(c.at(c.lo(), int64(c.n))) {
		c.drop()
	}
}

// storeRef writes page range [a, a+n) of a pl-byte page as the chunk window
// w (placed at w.off relative to a) with zeros around it: shared when the
// range holds all the page had, copied otherwise.
func (c *Cell) storeRef(pl, a, n int64, w Cell) {
	if c.ch == nil || c.within(a, n) {
		w.ch.retain()
		c.set(w.ch, w.chOff, a+w.lo(), int64(w.n))
		return
	}
	c.own(pl, a, n)
	d := c.at(a, n)
	clear(d[:w.lo()])
	copy(d[w.lo():w.hi()], w.at(w.lo(), int64(w.n)))
	clear(d[w.hi():])
}

// pages is content addressed as one byte range, one page at a time: a
// payload (its bytes when eager, else its cells), or the pages StoreCells
// and LoadCells are handed (ptrs; LoadCells may pass nil for a page of
// zeros).
type pages struct {
	p    *Payload
	ptrs []*Cell
	page int64
}

func (r *pages) bytes() bool { return r.p != nil && r.p.eager }

func (r *pages) cell(i int64) *Cell {
	if r.ptrs != nil {
		return r.ptrs[i]
	}
	if r.p.cells != nil {
		return &r.p.cells[i]
	}
	return nil
}

type shape uint8

const (
	zeros  shape = iota // the range reads as zeros
	window              // one chunk window with zeros around it
	mixed               // anything else
)

// classify reports what r holds over [x, x+n), at most a page: for a
// window, the window itself, its offset relative to x. It reads content, so
// it gives the same answer whether the bytes sit in cells or in a slice.
func (r *pages) classify(x, n int64) (shape, Cell) {
	if r.bytes() {
		if AllZero(r.p.data[x : x+n]) {
			return zeros, Cell{}
		}
		return mixed, Cell{}
	}
	var w Cell
	for pos := int64(0); pos < n; {
		i, a := (x+pos)/r.page, (x+pos)%r.page
		pn := min(r.page-a, n-pos)
		c := r.cell(i)
		if lo, hi := c.part(a, pn); lo < hi && (c.within(a, pn) || !AllZero(c.at(a+lo, hi-lo))) {
			part := Cell{ch: c.ch, chOff: c.chOff + a + lo - c.lo(), off: int32(pos + lo), n: int32(hi - lo)}
			switch {
			case w.ch == nil:
				w = part
			case w.ch == part.ch && w.hi() == part.lo() && w.chOff+int64(w.n) == part.chOff:
				w.n += part.n // one window across a page seam
			default:
				return mixed, Cell{}
			}
		}
		pos += pn
	}
	if w.ch == nil {
		return zeros, Cell{}
	}
	return window, w
}

// read copies content [x, x+len(dst)) into dst.
func (r *pages) read(dst []byte, x int64) {
	if r.bytes() {
		copy(dst, r.p.data[x:])
		return
	}
	n := int64(len(dst))
	for pos := int64(0); pos < n; {
		i, a := (x+pos)/r.page, (x+pos)%r.page
		pn := min(r.page-a, n-pos)
		c, piece := r.cell(i), dst[pos:pos+pn]
		lo, hi := c.part(a, pn)
		zeroFill(piece[:lo])
		if lo < hi {
			copy(piece[lo:hi], c.at(a+lo, hi-lo))
		}
		zeroFill(piece[hi:])
		pos += pn
	}
}

// write stores content [x, x+n) of s into r at byte y. An eager payload
// takes the bytes; cells take their pages' pieces one page at a time, each
// by content:
//
//   - all zeros: the piece reads as zeros afterwards, and a page left with
//     no non-zero byte becomes empty (an empty page stays empty);
//   - one chunk window with zeros around it: the page shares the chunk
//     (a reference, no bytes move);
//   - anything else is bytes. They are copied in place when the page's
//     chunk is its own (nothing else references it, and it is no larger
//     than the page) and its window covers the piece. Otherwise they are
//     snapshotted, once per call, into one chunk the pages take windows of.
//
// A piece that would leave two non-zero spans in one page, or land in a
// chunk something else references, first copies that page into a private
// chunk of its own. A lazy payload's cells are made at its first non-zero
// piece.
func (r *pages) write(y int64, s *pages, x, n int64) {
	if r.bytes() {
		s.read(r.p.data[y:y+n], x)
		return
	}
	var snap *Chunk
	var snapAt int64 // the call's byte snap.data[0] holds
	for pos := int64(0); pos < n; {
		i, a := (y+pos)/r.page, (y+pos)%r.page
		pl := r.page
		if r.p != nil {
			pl = min(pl, r.p.size-i*r.page) // a payload's last page may be short
		}
		pn := min(pl-a, n-pos)
		sh, w := s.classify(x+pos, pn)
		c := r.cell(i)
		if c == nil {
			if sh == zeros {
				pos += pn
				continue
			}
			r.p.cells = make([]Cell, (r.p.size+r.page-1)/r.page)
			c = &r.p.cells[i]
		}
		switch {
		case sh == zeros:
			c.storeZero(pl, a, pn)
		case sh == window:
			c.storeRef(pl, a, pn, w)
		case c.ch != nil && c.sole(pl) && c.covers(a, pn):
			s.read(c.at(a, pn), x+pos)
		case c.ch == nil || c.within(a, pn):
			if snap == nil {
				snap, snapAt = chunkGet(n-pos), pos
			} else {
				snap.retain()
			}
			s.read(snap.data[pos-snapAt:][:pn], x+pos)
			c.set(snap, pos-snapAt, a, pn)
		default:
			c.own(pl, a, pn)
			s.read(c.at(a, pn), x+pos)
		}
		pos += pn
	}
}

// StoreCells writes n bytes of src at srcOff into consecutive pages of
// pageBytes, starting off bytes into the page of cells[0], each page taking
// its piece by content as a lazy payload's page does (PayloadCopy).
func StoreCells(cells []*Cell, pageBytes, off int64, src *Payload, srcOff, n int64) {
	src.check(srcOff, n)
	checkCells(cells, pageBytes, off, n)
	r, s := pages{ptrs: cells, page: pageBytes}, pages{p: src, page: src.page}
	r.write(off, &s, srcOff, n)
}

// LoadCells reads n bytes of consecutive pages of pageBytes, starting off
// bytes into the page of cells[0], into dst at dstOff; a nil cell is a page
// of zeros. An eager destination gets the bytes; a lazy one's pages take
// their pieces by content, sharing the cells' chunks.
func LoadCells(dst *Payload, dstOff int64, cells []*Cell, pageBytes, off, n int64) {
	dst.check(dstOff, n)
	checkCells(cells, pageBytes, off, n)
	s, r := pages{ptrs: cells, page: pageBytes}, pages{p: dst, page: dst.page}
	r.write(dstOff, &s, off, n)
}

func checkCells(cells []*Cell, pageBytes, off, n int64) {
	if off < 0 || off >= pageBytes || off+n > int64(len(cells))*pageBytes {
		panic(fmt.Sprintf("mem: cell range [%d,+%d) outside %d pages of %d", off, n, len(cells), pageBytes))
	}
}
