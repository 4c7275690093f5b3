package ssd

import (
	"bytes"
	"testing"

	"camsim/internal/mem"
	"camsim/internal/nvme"
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

// The sparse store leans on zero-ness in two places: WriteLBAP skips
// all-zero writes to absent extents (the store stays sparse), and ReadLBAP
// answers an absent extent by marking the destination zero. These tests pin
// the observable semantics those shortcuts must preserve.

// TestStoreZeroWriteStaysSparse: writing zeros to never-written blocks must
// not materialize extents — observable bytes are unchanged (absent reads as
// zeros) and the resident footprint stays at zero.
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

// TestStoreNonzeroThenZeroOverwrite: once an extent holds data, writing
// zeros over it MUST copy — the zero-write elision applies only to absent
// extents, never to materialized ones.
func TestStoreNonzeroThenZeroOverwrite(t *testing.T) {
	s := NewStore(1 << 20)
	data := bytes.Repeat([]byte{0x5C}, nvme.LBASize)
	if err := writeLBA(s, 64, 1, data); err != nil {
		t.Fatal(err)
	}
	if err := writeLBA(s, 64, 1, make([]byte, nvme.LBASize)); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xFF}, nvme.LBASize)
	if err := readLBA(s, 64, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, nvme.LBASize)) {
		t.Error("zero overwrite of a materialized extent was elided; stale data survives")
	}
}

// TestStorePartialExtentWrite: a nonzero write must materialize only the
// extents it actually dirties; zero-only extents within the same span stay
// absent, and every byte reads back exactly.
func TestStorePartialExtentWrite(t *testing.T) {
	s := NewStore(1 << 20)
	// Span three extents: zeros | nonzero | zeros.
	nlb := uint32(3 * lbasPerExtent)
	src := make([]byte, int(nlb)*nvme.LBASize)
	for i := extentBytes; i < 2*extentBytes; i++ {
		src[i] = byte(i)
		if src[i] == 0 {
			src[i] = 1
		}
	}
	if err := writeLBA(s, 0, nlb, src); err != nil {
		t.Fatal(err)
	}
	if got, want := s.AllocatedBytes(), int64(extentBytes); got != want {
		t.Errorf("resident = %d bytes, want %d (only the nonzero extent)", got, want)
	}
	dst := make([]byte, len(src))
	if err := readLBA(s, 0, nlb, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("three-extent read-back differs from what was written")
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
		t.Error("absent-extent read left stale bytes in a dirty destination")
	}
}

// TestStoreInterleavedSparseDense alternates sparse and dense blocks inside
// one extent and across extent boundaries, exercising the lookup cache and
// both elision paths together.
func TestStoreInterleavedSparseDense(t *testing.T) {
	s := NewStore(1 << 20)
	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, nvme.LBASize) }
	// Straddle an extent boundary: last LBA of extent 0, first of extent 1.
	last := uint64(lbasPerExtent - 1)
	if err := writeLBA(s, last, 1, blk(7)); err != nil {
		t.Fatal(err)
	}
	if err := writeLBA(s, last+1, 1, make([]byte, nvme.LBASize)); err != nil {
		t.Fatal(err)
	}
	if got, want := s.AllocatedBytes(), int64(extentBytes); got != want {
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
