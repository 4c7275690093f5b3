package ssd

import (
	"fmt"
	"math/bits"

	"camsim/internal/mem"
	"camsim/internal/nvme"
)

// pageBytes is the store's content granule: the FTL's 4 KiB page, the
// payload's page (so a transfer copies cell for cell).
const pageBytes = mem.PageBytes

const lbasPerPage = pageBytes / nvme.LBASize

// Store is the sparse flash backing store, addressed by LBA. Unwritten
// blocks read as zeros, like a freshly formatted namespace.
//
// Content lives in one mem.Cell per 4 KiB page: a window of a chunk, zeros
// around it. A write shares the source's chunks where it can and otherwise
// copies bytes — in place when the page's chunk is its own; a read hands
// windows back by reference or copies them into an eager destination. A
// page holds a cell exactly while it holds a non-zero byte, so writing zeros
// into never-written blocks keeps the store sparse, and the footprint is
// the same in lazy and eager payload modes.
//
// Cells sit in an open-addressed page → cell table (linear probing, at most
// half full, backward-shift delete); a slot's key is page+1, 0 when free. A
// command works on the cells where they lie, so an overwrite in place
// stores nothing else.
type Store struct {
	capacityLBAs uint64
	tab          []slot
	shift        uint // 64 - log2(len(tab)): home slot = top bits of the hashed key
	pages        int
	// Scratch of one command: its pages' cells, cells for the pages it finds
	// absent, and the pages a write emptied. The first two start in the
	// buffers below and grow to the largest command past 32 KiB.
	cells    []*mem.Cell
	fresh    []mem.Cell
	gone     []uint64
	cellsBuf [8]*mem.Cell
	freshBuf [8]mem.Cell
}

type slot struct {
	key  uint64
	cell mem.Cell
}

// NewStore creates a store of the given capacity in logical blocks.
func NewStore(capacityLBAs uint64) *Store {
	s := &Store{capacityLBAs: capacityLBAs}
	s.cells, s.fresh = s.cellsBuf[:], s.freshBuf[:]
	return s
}

// CapacityLBAs reports the namespace size in logical blocks.
func (s *Store) CapacityLBAs() uint64 { return s.capacityLBAs }

// InRange reports whether [slba, slba+nlb) fits the namespace.
func (s *Store) InRange(slba uint64, nlb uint32) bool {
	return nlb > 0 && slba < s.capacityLBAs && uint64(nlb) <= s.capacityLBAs-slba
}

// ReadLBAP transfers nlb blocks starting at slba into dst at dstOff: by
// reference into a lazy destination, as bytes into an eager one; absent
// pages read as zeros. This is the DMA data plane.
func (s *Store) ReadLBAP(slba uint64, nlb uint32, dst *mem.Payload, dstOff int64) error {
	n := int64(nlb) * nvme.LBASize
	if dst.Size()-dstOff < n {
		return fmt.Errorf("ssd: read buffer %d bytes, need %d", dst.Size()-dstOff, n)
	}
	if !s.InRange(slba, nlb) {
		return fmt.Errorf("ssd: read [%d,+%d) out of range", slba, nlb)
	}
	_, off, cells, held := s.resolve(slba, n, false)
	if !held {
		dst.SetZero(dstOff, n)
		return nil
	}
	mem.LoadCells(dst, dstOff, cells, pageBytes, off, n)
	return nil
}

// WriteLBAP transfers nlb blocks from src at srcOff into the store (see
// mem.StoreCells for what each page keeps).
func (s *Store) WriteLBAP(slba uint64, nlb uint32, src *mem.Payload, srcOff int64) error {
	n := int64(nlb) * nvme.LBASize
	if src.Size()-srcOff < n {
		return fmt.Errorf("ssd: write buffer %d bytes, need %d", src.Size()-srcOff, n)
	}
	if !s.InRange(slba, nlb) {
		return fmt.Errorf("ssd: write [%d,+%d) out of range", slba, nlb)
	}
	first, off, cells, _ := s.resolve(slba, n, true)
	mem.StoreCells(cells, pageBytes, off, src, srcOff, n)
	// Settle the table. Removing or adding a page may move every slot, so
	// which table cells emptied is read before the first change.
	for i, c := range cells {
		if c.Empty() && c != &s.fresh[i] {
			s.gone = append(s.gone, first+uint64(i))
		}
	}
	if len(s.gone) > 0 {
		for _, p := range s.gone {
			j, _ := s.find(p)
			s.remove(j)
		}
		s.gone = s.gone[:0]
	}
	for i, c := range cells {
		if c == &s.fresh[i] && !c.Empty() {
			s.insert(first+uint64(i), *c)
			*c = mem.Cell{}
		}
	}
	return nil
}

// resolve lists the cells of the pages [slba, +n bytes) touches, returning
// the first page, the offset into it and whether any of them is held. An
// absent page is nil, or, for a write, an empty cell of the fresh scratch.
func (s *Store) resolve(slba uint64, n int64, write bool) (first uint64, off int64, cells []*mem.Cell, held bool) {
	first, off = slba/lbasPerPage, int64(slba%lbasPerPage)*nvme.LBASize
	np := int((off + n + pageBytes - 1) / pageBytes)
	if cap(s.cells) < np {
		s.cells, s.fresh = make([]*mem.Cell, np), make([]mem.Cell, np) // grows to the largest command, then reuses
	}
	cells = s.cells[:np]
	for i := range cells {
		var c *mem.Cell
		if s.pages > 0 {
			if j, ok := s.find(first + uint64(i)); ok {
				c, held = &s.tab[j].cell, true
			}
		}
		if c == nil && write {
			c = &s.fresh[i]
		}
		cells[i] = c
	}
	return first, off, cells, held
}

// AllocatedBytes reports the resident footprint of the sparse store: the
// pages holding a non-zero byte.
func (s *Store) AllocatedBytes() int64 { return int64(s.pages) * pageBytes }

// home is the first probe slot of a key (page+1).
func (s *Store) home(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> s.shift)
}

// find probes for page: its slot, or the free slot that ends its probe run.
func (s *Store) find(page uint64) (int, bool) {
	mask := len(s.tab) - 1
	for i := s.home(page + 1); ; i = (i + 1) & mask {
		switch s.tab[i].key {
		case page + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// insert adds an absent page's cell.
func (s *Store) insert(page uint64, c mem.Cell) {
	if 2*(s.pages+1) > len(s.tab) {
		s.grow()
	}
	i, _ := s.find(page)
	s.tab[i] = slot{key: page + 1, cell: c}
	s.pages++
}

// remove empties slot i, closing the hole with every later slot of the
// probe run whose home lies at or before it.
func (s *Store) remove(i int) {
	mask := len(s.tab) - 1
	for j := (i + 1) & mask; s.tab[j].key != 0; j = (j + 1) & mask {
		if h := s.home(s.tab[j].key); (j-h)&mask >= (j-i)&mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = slot{}
	s.pages--
}

// grow doubles the table (16 slots at first) and re-homes every cell.
func (s *Store) grow() {
	old := s.tab
	size := max(16, 2*len(old))
	s.tab = make([]slot, size)
	s.shift = uint(64 - bits.Len(uint(size-1)))
	for _, sl := range old {
		if sl.key != 0 {
			i, _ := s.find(sl.key - 1)
			s.tab[i] = sl
		}
	}
}
