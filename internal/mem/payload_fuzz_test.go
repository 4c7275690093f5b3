package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// checkInvariants verifies the cell and reference-count invariants over a
// row of page cells and payloads that together own every live chunk: a
// payload is eager (its bytes, no cells) or lazy (no bytes, and no cells or
// one per page); each cell is empty or a window inside its page and its
// chunk holding a nonzero byte; and every chunk's refs equals the number of
// cells pointing at it.
func checkInvariants(pageBytes int64, cells []Cell, ps ...*Payload) error {
	held := map[*Chunk]int32{}
	checkCell := func(c *Cell, pl int64, where string) error {
		if c.ch == nil {
			if *c != (Cell{}) {
				return fmt.Errorf("%s: no chunk but window [%d,+%d) at %d", where, c.off, c.n, c.chOff)
			}
			return nil
		}
		if c.n <= 0 || c.off < 0 || c.hi() > pl || c.chOff < 0 || c.chOff+int64(c.n) > int64(len(c.ch.data)) {
			return fmt.Errorf("%s: window [%d,+%d) at chunk offset %d outside its %d-byte page or its %d-byte chunk", where, c.off, c.n, c.chOff, pl, len(c.ch.data))
		}
		if AllZero(c.at(c.lo(), int64(c.n))) {
			return fmt.Errorf("%s: holds a window of zeros instead of being empty", where)
		}
		held[c.ch]++
		return nil
	}
	for i := range cells {
		if err := checkCell(&cells[i], pageBytes, fmt.Sprintf("cell %d", i)); err != nil {
			return err
		}
	}
	for pi, p := range ps {
		if p.eager {
			if p.cells != nil || int64(len(p.data)) != p.size {
				return fmt.Errorf("payload %d: eager with %d cells and %d bytes, size %d", pi, len(p.cells), len(p.data), p.size)
			}
			continue
		}
		if np := (p.size + p.page - 1) / p.page; p.data != nil || (p.cells != nil && int64(len(p.cells)) != np) {
			return fmt.Errorf("payload %d: lazy with %d bytes and %d cells, want none and 0 or %d", pi, len(p.data), len(p.cells), np)
		}
		for k := range p.cells {
			pl := min(p.page, p.size-int64(k)*p.page)
			if err := checkCell(&p.cells[k], pl, fmt.Sprintf("payload %d page %d", pi, k)); err != nil {
				return err
			}
		}
	}
	for ch, n := range held {
		if ch.refs != n {
			return fmt.Errorf("chunk %p: refs %d, %d cells point at it", ch, ch.refs, n)
		}
	}
	return nil
}

// fuzzPayloadSizes are small and unequal so random offsets hit page seams,
// first/last pages and cross-payload clipping often.
var fuzzPayloadSizes = [...]int{64, 48, 80}

// fuzzPayloadPage divides neither the payload sizes (every payload ends in a
// short page) nor fuzzPageBytes (a store page's piece straddles two payload
// pages).
const fuzzPayloadPage = 12

const fuzzOpBytes = 5

// Op codes of the FuzzPayloadOps interpreter.
const (
	fzWrite     = iota // WriteAt of a pattern whose first byte is non-zero
	fzWriteZero        // WriteAt of zeros
	fzSetZero
	fzRead
	fzRangeZero
	fzCopy    // PayloadCopy, src may equal dst (overlapping self-copy)
	fzBytes   // materialize and compare
	fzPoke    // materialize and write one byte through the slice
	fzRelease // Release and recreate the payload
	fzStore   // StoreCells from the payload into the page cells
	fzLoad    // LoadCells from the page cells into the payload
	fzOps
)

// The page cells the interpreter stores into and loads from: small pages,
// so one op spans several and sub-page windows are the rule.
const (
	fuzzPages     = 4
	fuzzPageBytes = 16
)

// fuzzPayloadOps interprets data as a sequence of five-byte ops — opcode,
// payload selector (dst in bits 0-1, src in bits 2-3), offset, length,
// argument — over lazy payloads and a row of page cells, all mirrored by
// plain byte slices. Page ops move the payload's [offset, +length) to or
// from the cells at byte argument of their row; bit 4 of the selector hands
// LoadCells empty cells as nil, the way ssd.Store does. Operands are reduced
// into range, so every input is a legal trace.
func fuzzPayloadOps(t *testing.T, data []byte) {
	var ps [len(fuzzPayloadSizes)]*Payload
	var model [len(fuzzPayloadSizes)][]byte
	for i, n := range fuzzPayloadSizes {
		ps[i] = newPayload(int64(n), fuzzPayloadPage, false)
		model[i] = make([]byte, n)
	}
	var cells [fuzzPages]Cell
	var cellModel [fuzzPages * fuzzPageBytes]byte
	// span lists the cells under row bytes [off, off+n), nil for an empty
	// one when asked, and the offset into the first.
	span := func(off, n int, nilEmpty bool) ([]*Cell, int64) {
		var cs []*Cell
		for i := off / fuzzPageBytes; i <= (off+n-1)/fuzzPageBytes; i++ {
			if c := &cells[i]; !nilEmpty || !c.Empty() {
				cs = append(cs, c)
			} else {
				cs = append(cs, nil)
			}
		}
		return cs, int64(off % fuzzPageBytes)
	}
	seen := map[*Chunk]bool{}
	check := func(step int, what string) {
		t.Helper()
		if err := checkInvariants(fuzzPageBytes, cells[:], ps[:]...); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		for i := range cells {
			got := make([]byte, fuzzPageBytes)
			if c := &cells[i]; !c.Empty() {
				copy(got[c.lo():], c.at(c.lo(), int64(c.n)))
				seen[c.ch] = true
			}
			if want := cellModel[i*fuzzPageBytes:][:fuzzPageBytes]; !bytes.Equal(got, want) {
				t.Fatalf("step %d (%s): page %d = %x, model %x", step, what, i, got, want)
			}
		}
		for _, p := range ps {
			for k := range p.cells {
				if c := &p.cells[k]; !c.Empty() {
					seen[c.ch] = true
				}
			}
		}
	}
	for step := 0; (step+1)*fuzzOpBytes <= len(data); step++ {
		op := data[step*fuzzOpBytes:][:fuzzOpBytes]
		di, si := int(op[1]&3)%len(ps), int(op[1]>>2&3)%len(ps)
		p, m := ps[di], model[di]
		off := int(op[2]) % len(m)
		n := 1 + int(op[3])%(len(m)-off)
		what := fmt.Sprintf("op %d p%d [%d,+%d) arg %d", op[0]%fzOps, di, off, n, op[4])
		switch op[0] % fzOps {
		case fzWrite:
			src := make([]byte, n)
			for k := range src {
				src[k] = byte(int(op[4]) + k*31)
			}
			src[0] |= 1
			p.WriteAt(src, int64(off))
			copy(m[off:], src)
		case fzWriteZero:
			p.WriteAt(make([]byte, n), int64(off))
			clear(m[off : off+n])
		case fzSetZero:
			p.SetZero(int64(off), int64(n))
			clear(m[off : off+n])
		case fzRead:
			got := bytes.Repeat([]byte{0xA5}, n) // dirty: ReadAt must overwrite all of it
			p.ReadAt(got, int64(off))
			if !bytes.Equal(got, m[off:off+n]) {
				t.Fatalf("step %d (%s): ReadAt = %x, model %x", step, what, got, m[off:off+n])
			}
		case fzRangeZero:
			if got, want := p.RangeZero(int64(off), int64(n)), AllZero(m[off:off+n]); got != want {
				t.Fatalf("step %d (%s): RangeZero = %v, model %v", step, what, got, want)
			}
		case fzCopy:
			src, sm := ps[si], model[si]
			soff := int(op[4]) % len(sm)
			if n > len(sm)-soff {
				n = len(sm) - soff
			}
			what += fmt.Sprintf(" from p%d@%d n=%d", si, soff, n)
			PayloadCopy(p, int64(off), src, int64(soff), int64(n))
			copy(m[off:off+n], sm[soff:soff+n]) // memmove: overlap-safe like the staged self-copy
		case fzBytes:
			if got := p.Bytes(); !bytes.Equal(got, m) {
				t.Fatalf("step %d (%s): Bytes = %x, model %x", step, what, got, m)
			}
		case fzPoke:
			p.Bytes()[off] = op[4]
			m[off] = op[4]
		case fzRelease:
			p.Release()
			ps[di] = newPayload(int64(len(m)), fuzzPayloadPage, false)
			clear(m)
		case fzStore, fzLoad:
			row := int(op[4]) % len(cellModel)
			n = min(n, len(cellModel)-row)
			cs, first := span(row, n, op[1]&16 != 0 && op[0]%fzOps == fzLoad)
			what += fmt.Sprintf(" row@%d n=%d", row, n)
			if op[0]%fzOps == fzStore {
				StoreCells(cs, fuzzPageBytes, first, p, int64(off), int64(n))
				copy(cellModel[row:], m[off:off+n])
			} else {
				LoadCells(p, int64(off), cs, fuzzPageBytes, first, int64(n))
				copy(m[off:], cellModel[row:row+n])
			}
		}
		check(step, what)
	}
	for i, p := range ps {
		if got := p.Bytes(); !bytes.Equal(got, model[i]) {
			t.Fatalf("final: payload %d = %x, model %x", i, got, model[i])
		}
		p.Release()
	}
	zeros := NewPayload(int64(len(cellModel)), false)
	cs, _ := span(0, len(cellModel), false)
	StoreCells(cs, fuzzPageBytes, 0, zeros, 0, int64(len(cellModel)))
	zeros.Release()
	for i := range cells {
		if !cells[i].Empty() {
			t.Fatalf("final: page %d holds a window after zeros were stored over every page", i)
		}
	}
	for ch := range seen {
		if ch.refs != 0 {
			t.Fatalf("chunk %p still holds %d references after every payload was released", ch, ch.refs)
		}
	}
}

// fz encodes one interpreter op; src and arg are ignored by ops that do not
// use them.
func fz(op, dst, src, off, n, arg int) []byte {
	return []byte{byte(op), byte(dst | src<<2), byte(off), byte(n - 1), byte(arg)}
}

func fzSeq(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// fuzzPayloadSeeds are the page-seam cases of payload writes, zeros and
// copies, then the store and load rules of page cells; plain `go test` runs
// them as FuzzPayloadOps/seed#<index>.
var fuzzPayloadSeeds = [][]byte{
	// overwrite-one-span-in-place
	fzSeq(
		fz(fzWrite, 0, 0, 16, 16, 1), fz(fzWrite, 0, 0, 16, 16, 2), fz(fzRead, 0, 0, 0, 64, 0)),
	// write-into-the-middle-of-a-multi-page-snapshot
	fzSeq(
		fz(fzWrite, 0, 0, 0, 64, 1), fz(fzWrite, 0, 0, 16, 16, 2), // the middle pages copy out of the shared chunk
		fz(fzRead, 0, 0, 0, 64, 0), fz(fzRelease, 0, 0, 0, 1, 0)),
	// zero-a-written-span-empties-its-pages
	fzSeq(
		fz(fzWrite, 0, 0, 16, 16, 1), fz(fzSetZero, 0, 0, 16, 16, 0), fz(fzRangeZero, 0, 0, 0, 64, 0)),
	// copy-back-rejoins-the-shared-chunk
	fzSeq(
		fz(fzWrite, 0, 0, 0, 48, 1), fz(fzCopy, 1, 0, 0, 48, 0), // p1 shares p0's chunk
		fz(fzWrite, 1, 0, 16, 16, 9), fz(fzCopy, 1, 0, 16, 16, 16), // restore the middle from p0's chunk again
		fz(fzRead, 1, 0, 0, 48, 0)),
	// zero-the-front-of-a-window
	fzSeq(
		fz(fzWrite, 0, 0, 16, 16, 1), fz(fzSetZero, 0, 0, 16, 8, 0), fz(fzRead, 0, 0, 0, 64, 0)),
	// zero-the-back-of-a-window
	fzSeq(
		fz(fzWrite, 0, 0, 16, 16, 1), fz(fzSetZero, 0, 0, 24, 8, 0), fz(fzRead, 0, 0, 0, 64, 0)),
	// first-and-last-page
	fzSeq(
		fz(fzWrite, 0, 0, 0, 8, 1), fz(fzWrite, 0, 0, 56, 8, 2), fz(fzWrite, 0, 0, 0, 8, 3),
		fz(fzWrite, 0, 0, 56, 8, 4), fz(fzSetZero, 0, 0, 0, 8, 0), fz(fzSetZero, 0, 0, 56, 8, 0)),
	// collapse-many
	fzSeq(
		fz(fzWrite, 0, 0, 0, 4, 1), fz(fzWrite, 0, 0, 8, 4, 2), fz(fzWrite, 0, 0, 16, 4, 3),
		fz(fzWrite, 0, 0, 24, 4, 4), fz(fzWrite, 0, 0, 32, 4, 5), fz(fzWrite, 0, 0, 40, 4, 6),
		fz(fzWrite, 0, 0, 2, 40, 7), // across every window, into the middle of the first and last
		fz(fzSetZero, 0, 0, 0, 64, 0)),
	// fragmented-source-straddles-seams
	fzSeq(
		fz(fzWrite, 2, 0, 0, 4, 1), fz(fzWrite, 2, 0, 8, 4, 2), fz(fzWrite, 2, 0, 16, 4, 3),
		fz(fzWrite, 2, 0, 24, 4, 4), fz(fzWrite, 2, 0, 32, 4, 5), fz(fzWrite, 2, 0, 40, 4, 6),
		fz(fzCopy, 0, 2, 4, 48, 0), fz(fzCopy, 0, 2, 5, 48, 1), fz(fzRead, 0, 0, 0, 64, 0)),
	// overlapping-self-copy
	fzSeq(
		fz(fzWrite, 0, 0, 0, 32, 1), fz(fzCopy, 0, 0, 16, 32, 0), fz(fzCopy, 0, 0, 0, 32, 8),
		fz(fzRead, 0, 0, 0, 64, 0)),
	// materialized-source
	fzSeq(
		fz(fzWrite, 1, 0, 8, 8, 1), fz(fzPoke, 1, 0, 30, 1, 7), // p1 is eager: bytes, then zeros
		fz(fzCopy, 0, 1, 0, 48, 0), fz(fzCopy, 0, 1, 40, 8, 40), fz(fzWrite, 1, 0, 4, 8, 3), // an eager source's bytes land in snapshots
		fz(fzCopy, 2, 1, 0, 48, 0), fz(fzBytes, 0, 0, 0, 1, 0), fz(fzBytes, 2, 0, 0, 1, 0)),
	// zero-source-over-windows
	fzSeq(
		fz(fzWrite, 0, 0, 0, 64, 1), fz(fzCopy, 0, 1, 8, 40, 0), fz(fzWriteZero, 0, 0, 48, 16, 0),
		fz(fzRangeZero, 0, 0, 8, 56, 0)),
	// set-zero-over-zero: inside, exactly over and across the end of empty
	// pages; only the last ones reach a window
	fzSeq(
		fz(fzSetZero, 0, 0, 0, 64, 0), fz(fzSetZero, 0, 0, 20, 8, 0), // untouched payload: no cells
		fz(fzWrite, 0, 0, 0, 16, 1), fz(fzWrite, 0, 0, 48, 16, 2), // window, zeros [16,48), window
		fz(fzSetZero, 0, 0, 24, 8, 0), fz(fzSetZero, 0, 0, 16, 32, 0), fz(fzSetZero, 0, 0, 16, 1, 0),
		fz(fzSetZero, 0, 0, 47, 1, 0), fz(fzRead, 0, 0, 0, 64, 0),
		fz(fzSetZero, 0, 0, 40, 16, 0), fz(fzRangeZero, 0, 0, 16, 40, 0), // starts in zeros, ends in a window
		fz(fzSetZero, 0, 0, 8, 16, 0), fz(fzRead, 0, 0, 0, 64, 0)), // starts in a window, ends in zeros
	// page-shares-a-reference-then-copies-on-write: three pages take windows
	// of p0's chunk, p1 reads them back as windows of it, and a sub-page
	// write into a shared page makes that page private
	fzSeq(
		fz(fzWrite, 0, 0, 0, 64, 1), fz(fzStore, 0, 0, 8, 40, 4), fz(fzLoad, 1, 0, 0, 40, 4),
		fz(fzWrite, 0, 0, 0, 64, 2), fz(fzStore, 0, 0, 20, 8, 10), fz(fzRead, 1, 0, 0, 48, 0)),
	// materialized-source-snapshots-once: four pages share one snapshot, then
	// a sub-page write copies one of them out
	fzSeq(
		fz(fzWrite, 2, 0, 0, 80, 3), fz(fzBytes, 2, 0, 0, 1, 0), fz(fzStore, 2, 0, 0, 64, 0),
		fz(fzStore, 2, 0, 5, 3, 17), fz(fzLoad, 0, 0, 0, 64, 0)),
	// zeros-in-the-middle-at-the-edges-and-over-all: a private page is
	// cleared in place, windows are trimmed front and back, a page drops
	fzSeq(
		fz(fzWrite, 0, 0, 0, 64, 9), fz(fzBytes, 0, 0, 0, 1, 0), fz(fzStore, 0, 0, 0, 64, 0),
		fz(fzWriteZero, 1, 0, 0, 48, 0), fz(fzStore, 1, 0, 0, 4, 20), fz(fzStore, 1, 0, 0, 6, 32),
		fz(fzStore, 1, 0, 0, 6, 58), fz(fzStore, 1, 0, 0, 16, 0), fz(fzLoad, 2, 0, 0, 64, 0)),
	// sparse-windows-many-segments: a two-byte window per page, one page
	// emptied, read back with empty cells as nil in more than eight pieces
	fzSeq(
		fz(fzWrite, 0, 0, 0, 2, 1), fz(fzStore, 0, 0, 0, 2, 3), fz(fzStore, 0, 0, 0, 2, 21),
		fz(fzStore, 0, 0, 0, 2, 37), fz(fzStore, 0, 0, 0, 2, 53), fz(fzLoad, 2, 4, 0, 64, 0),
		fz(fzWriteZero, 1, 0, 0, 16, 0), fz(fzStore, 1, 0, 0, 16, 16), fz(fzLoad, 2, 4, 8, 64, 0)),
	// cells-back-into-cells: pages read into p0 are stored over other pages,
	// so windows of page chunks land in pages, then are overwritten
	fzSeq(
		fz(fzWrite, 1, 0, 0, 48, 5), fz(fzStore, 1, 0, 0, 32, 0), fz(fzLoad, 0, 0, 0, 32, 0),
		fz(fzStore, 0, 0, 4, 24, 36), fz(fzWrite, 0, 0, 8, 8, 6), fz(fzStore, 0, 0, 0, 32, 30)),
	// zeroing-the-only-nonzero-span-empties-the-page: a page of bytes that
	// are zero past its first four is left with zeros only and must empty
	fzSeq(
		fz(fzWrite, 0, 0, 0, 4, 1), fz(fzBytes, 0, 0, 0, 1, 0), fz(fzStore, 0, 0, 0, 16, 0),
		fz(fzStore, 1, 0, 0, 4, 0)),
}

// FuzzPayloadOps drives random op sequences over three lazy payloads and
// four page cells against plain byte-slice models, checking content, the
// payload forms, the cell windows and chunk reference counts after every op.
func FuzzPayloadOps(f *testing.F) {
	for _, seed := range fuzzPayloadSeeds {
		f.Add(seed)
	}
	f.Fuzz(fuzzPayloadOps)
}
