package ssd

import (
	"bytes"
	"testing"

	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// writeLBA and readLBA move caller-owned bytes through the store's payload
// plane: the slice is wrapped into an eager payload view for the call.
func writeLBA(s *Store, slba uint64, nlb uint32, src []byte) error {
	pay := mem.WrapBytes(src)
	defer pay.Release()
	return s.WriteLBAP(slba, nlb, pay, 0)
}

func readLBA(s *Store, slba uint64, nlb uint32, dst []byte) error {
	pay := mem.WrapBytes(dst)
	defer pay.Release()
	return s.ReadLBAP(slba, nlb, pay, 0)
}

// The sparse store leans on zero-ness in two places: a page holds a cell
// only while it holds a non-zero byte (writing zeros into an absent page
// keeps it absent, and zeroing all a page held drops it), and ReadLBAP
// answers an absent page by marking the destination zero. These tests pin
// the observable semantics those shortcuts must preserve.

// TestStoreZeroWriteStaysSparse: writing zeros to never-written blocks must
// not create pages — observable bytes are unchanged (absent reads as zeros)
// and the resident footprint stays at zero.
func TestStoreZeroWriteStaysSparse(t *testing.T) {
	s := NewStore(1 << 20)
	zeros := make([]byte, 8*nvme.LBASize)
	if err := writeLBA(s, 1000, 8, zeros); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocatedBytes(); got != 0 {
		t.Errorf("zero write materialized %d bytes; want the store to stay sparse", got)
	}
	dst := make([]byte, 8*nvme.LBASize)
	dst[17] = 0xAA // dirty destination: the read must still return zeros
	if err := readLBA(s, 1000, 8, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, zeros) {
		t.Error("read-back of zero-written blocks is not all zeros")
	}
}

// TestStoreNonzeroThenZeroOverwrite: once a page holds data, writing zeros
// over it MUST land — it is only an absent page that a zero write leaves
// alone — and a page left with nothing but zeros leaves the store.
func TestStoreNonzeroThenZeroOverwrite(t *testing.T) {
	s := NewStore(1 << 20)
	data := bytes.Repeat([]byte{0x5C}, nvme.LBASize)
	if err := writeLBA(s, 64, 1, data); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocatedBytes(); got != pageBytes {
		t.Errorf("resident = %d bytes after one nonzero block, want one page (%d)", got, pageBytes)
	}
	if err := writeLBA(s, 64, 1, make([]byte, nvme.LBASize)); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xFF}, nvme.LBASize)
	if err := readLBA(s, 64, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, nvme.LBASize)) {
		t.Error("zero overwrite of a written page was elided; stale data survives")
	}
	if got := s.AllocatedBytes(); got != 0 {
		t.Errorf("resident = %d bytes after zeroing the only nonzero block, want 0", got)
	}
}

// TestStorePartialExtentWrite: a nonzero write must create only the pages
// it actually dirties; zero-only pages within the same span stay absent,
// and every byte reads back exactly.
func TestStorePartialExtentWrite(t *testing.T) {
	s := NewStore(1 << 20)
	// Span three pages: zeros | nonzero | zeros.
	nlb := uint32(3 * lbasPerPage)
	src := make([]byte, int(nlb)*nvme.LBASize)
	for i := pageBytes; i < 2*pageBytes; i++ {
		src[i] = byte(i)
		if src[i] == 0 {
			src[i] = 1
		}
	}
	if err := writeLBA(s, 0, nlb, src); err != nil {
		t.Fatal(err)
	}
	if got, want := s.AllocatedBytes(), int64(pageBytes); got != want {
		t.Errorf("resident = %d bytes, want %d (only the nonzero page)", got, want)
	}
	dst := make([]byte, len(src))
	if err := readLBA(s, 0, nlb, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("three-page read-back differs from what was written")
	}
}

// TestStoreReadIntoDirtyBuffer: reading absent blocks into a buffer holding
// stale nonzero bytes must clear them.
func TestStoreReadIntoDirtyBuffer(t *testing.T) {
	s := NewStore(1 << 20)
	dst := bytes.Repeat([]byte{0xEE}, 4*nvme.LBASize)
	if err := readLBA(s, 500, 4, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Error("absent-page read left stale bytes in a dirty destination")
	}
}

// TestStoreInterleavedSparseDense alternates sparse and dense blocks across
// a page boundary, exercising both zero paths together.
func TestStoreInterleavedSparseDense(t *testing.T) {
	s := NewStore(1 << 20)
	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, nvme.LBASize) }
	// Straddle a page boundary: last LBA of page 0, first of page 1.
	last := uint64(lbasPerPage - 1)
	if err := writeLBA(s, last, 1, blk(7)); err != nil {
		t.Fatal(err)
	}
	if err := writeLBA(s, last+1, 1, make([]byte, nvme.LBASize)); err != nil {
		t.Fatal(err)
	}
	if got, want := s.AllocatedBytes(), int64(pageBytes); got != want {
		t.Errorf("resident = %d, want %d (zero write past the boundary stays sparse)", got, want)
	}
	two := make([]byte, 2*nvme.LBASize)
	if err := readLBA(s, last, 2, two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two[:nvme.LBASize], blk(7)) || !bytes.Equal(two[nvme.LBASize:], blk(0)) {
		t.Error("boundary-straddling read-back mismatch")
	}
}

// TestStoreMatchesFlatModel drives seeded random commands through a store
// and mirrors them on a flat byte image of the namespace: 1–40 LBAs at any
// LBA, so commands start mid-page and straddle pages; content that is all
// zeros, all bytes, or zeros with a few nonzero spans (stamps among them);
// eager, lazy and wrapped payloads on both sides, at payload offsets that
// are not page-aligned. Lazy payloads read from the store are kept a while
// and written back elsewhere, so pages share chunks with payloads and with
// each other, and each must keep what it read. The resident footprint must
// be the nonzero pages of the image at every step, and identical with every
// payload born eager.
func TestStoreMatchesFlatModel(t *testing.T) {
	var resident [2][]int64
	for mode, eager := range []bool{false, true} {
		prev := mem.DefaultEager()
		mem.SetDefaultEager(eager)
		resident[mode] = storeFlatModel(t, 11)
		mem.SetDefaultEager(prev)
	}
	for i := range resident[0] {
		if resident[0][i] != resident[1][i] {
			t.Fatalf("step %d: %d bytes resident with lazy payloads, %d with eager", i, resident[0][i], resident[1][i])
		}
	}
}

// heldRead is a lazy payload read from the store and the bytes it must keep.
type heldRead struct {
	pay  *mem.Payload
	want []byte
}

func storeFlatModel(t *testing.T, seed uint64) (resident []int64) {
	t.Helper()
	const lbas, steps = 256, 3000
	s := NewStore(lbas)
	flat := make([]byte, lbas*nvme.LBASize)
	rng := sim.NewRNG(seed)
	var held []heldRead
	readBack := func(p *mem.Payload, off, n int64) []byte {
		got := make([]byte, n)
		p.ReadAt(got, off)
		return got
	}
	for step := 0; step < steps; step++ {
		nlb := uint32(1 + rng.Int63n(40))
		slba := uint64(rng.Int63n(lbas - int64(nlb) + 1))
		n := int64(nlb) * nvme.LBASize
		at := int64(slba) * nvme.LBASize
		pad := rng.Int63n(3) * 96 // a payload offset off every page and LBA boundary
		kind := rng.Int63n(4)
		if rng.Int63n(2) == 0 {
			var src *mem.Payload
			var content []byte
			kept := kind == 3 && len(held) > 0
			if kept {
				// Write a kept read back: its windows are store chunks.
				h := held[rng.Int63n(int64(len(held)))]
				nlb = uint32(min(int64(nlb), int64(len(h.want))/nvme.LBASize))
				n = int64(nlb) * nvme.LBASize
				pad = rng.Int63n(int64(len(h.want)) - n + 1)
				src, content = h.pay, h.want[pad:pad+n]
			} else {
				content = flatContent(rng, n)
				src = sourcePayload(rng, kind, content, pad)
			}
			if err := s.WriteLBAP(slba, nlb, src, pad); err != nil {
				t.Fatalf("step %d: write [%d,+%d): %v", step, slba, nlb, err)
			}
			copy(flat[at:], content)
			if !kept {
				src.Release()
			}
		} else {
			dst := destPayload(rng, kind, n+pad)
			if err := s.ReadLBAP(slba, nlb, dst, pad); err != nil {
				t.Fatalf("step %d: read [%d,+%d): %v", step, slba, nlb, err)
			}
			want := flat[at : at+n]
			if got := readBack(dst, pad, n); !bytes.Equal(got, want) {
				t.Fatalf("step %d: read [%d,+%d) into kind %d at %d differs from the image", step, slba, nlb, kind, pad)
			}
			if kind == 1 && len(held) < 8 {
				held = append(held, heldRead{dst, append([]byte(nil), readBack(dst, 0, dst.Size())...)})
			} else {
				dst.Release()
			}
		}
		if len(held) > 0 && rng.Int63n(8) == 0 {
			i := rng.Int63n(int64(len(held)))
			h := held[i]
			if got := readBack(h.pay, 0, h.pay.Size()); !bytes.Equal(got, h.want) {
				t.Fatalf("step %d: a kept read changed after later writes to the pages it shares", step)
			}
			h.pay.Release()
			held = append(held[:i], held[i+1:]...)
		}
		var nonzero int64
		for p := 0; p < len(flat); p += pageBytes {
			if !mem.AllZero(flat[p : p+pageBytes]) {
				nonzero += pageBytes
			}
		}
		if got := s.AllocatedBytes(); got != nonzero {
			t.Fatalf("step %d: %d bytes resident, the image has %d in nonzero pages", step, got, nonzero)
		}
		resident = append(resident, nonzero)
	}
	for _, h := range held {
		h.pay.Release()
	}
	got := make([]byte, len(flat))
	if err := readLBA(s, 0, lbas, got); err != nil || !bytes.Equal(got, flat) {
		t.Fatalf("final image differs from the store (err %v)", err)
	}
	return resident
}

// flatContent is n bytes that are all zeros, all random, or zeros with one
// to three nonzero spans — 32-byte stamps at LBA starts among them.
func flatContent(rng *sim.RNG, n int64) []byte {
	b := make([]byte, n)
	switch rng.Int63n(3) {
	case 1:
		for i := range b {
			b[i] = byte(rng.Uint64()) | 1
		}
	case 2:
		for k := 1 + rng.Int63n(3); k > 0; k-- {
			off, l := rng.Int63n(n), 1+rng.Int63n(600)
			if rng.Int63n(2) == 0 {
				off, l = off/nvme.LBASize*nvme.LBASize, 32
			}
			for i := off; i < min(off+l, n); i++ {
				b[i] = byte(rng.Uint64()) | 1
			}
		}
	}
	return b
}

// sourcePayload holds content at pad: wrapped, eager, or born in the
// default mode and written in pieces (empty pages and chunk windows when
// that mode is lazy).
func sourcePayload(rng *sim.RNG, kind int64, content []byte, pad int64) *mem.Payload {
	size := pad + int64(len(content)) + rng.Int63n(2)*512
	switch kind {
	case 0:
		buf := make([]byte, size)
		copy(buf[pad:], content)
		return mem.WrapBytes(buf)
	case 1:
		p := mem.NewPayload(size, true)
		copy(p.Bytes()[pad:], content)
		return p
	}
	p := mem.NewPayload(size, mem.DefaultEager())
	for off := int64(0); off < int64(len(content)); {
		l := min(1+rng.Int63n(6000), int64(len(content))-off)
		p.WriteAt(content[off:off+l], pad+off)
		off += l
	}
	return p
}

// destPayload is a dirty destination: wrapped, eager, born in the default
// mode with stale pages in it, or born in the default mode untouched.
func destPayload(rng *sim.RNG, kind, size int64) *mem.Payload {
	dirt := bytes.Repeat([]byte{0xD1}, int(size))
	switch kind {
	case 0:
		return mem.WrapBytes(dirt)
	case 1:
		return mem.NewPayload(size, mem.DefaultEager())
	case 2:
		p := mem.NewPayload(size, true)
		copy(p.Bytes(), dirt)
		return p
	}
	p := mem.NewPayload(size, mem.DefaultEager())
	p.WriteAt(dirt[:size/2], rng.Int63n(size/2+1))
	return p
}
