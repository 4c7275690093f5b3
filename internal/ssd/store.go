package ssd

import (
	"fmt"

	"camsim/internal/mem"
	"camsim/internal/nvme"
)

// extentBytes is the allocation unit of the sparse backing store. 64 KiB
// keeps the per-namespace extent map small while bounding how much content
// one extent payload tracks.
const extentBytes = 64 << 10

const lbasPerExtent = extentBytes / nvme.LBASize

// Store is the sparse flash backing store, addressed by LBA. Unwritten
// blocks read as zeros, like a freshly formatted namespace.
//
// Content lives in per-extent payloads (see mem.Payload): a write records
// references to the source's content, a read hands references back, and
// real bytes exist only where some consumer materialized them. Whether an
// extent exists at all is decided by content — writes that scan as zero
// into an absent extent are elided — so the allocation accounting is
// identical in lazy and eager payload modes. The last extent touched is
// cached to short-circuit the map lookup on sequential and strided runs.
type Store struct {
	capacityLBAs uint64
	extents      map[uint64]*mem.Payload
	lastExt      uint64       // most recently resolved extent index
	lastPay      *mem.Payload // its payload; nil until the first lookup
	writtenLBAs  uint64       // approximate footprint accounting (extent-granular)
}

// NewStore creates a store of the given capacity in logical blocks.
func NewStore(capacityLBAs uint64) *Store {
	return &Store{capacityLBAs: capacityLBAs, extents: make(map[uint64]*mem.Payload)}
}

// lookup resolves an extent for reading, nil if never written.
func (s *Store) lookup(ext uint64) *mem.Payload {
	if s.lastPay != nil && s.lastExt == ext {
		return s.lastPay
	}
	pay, ok := s.extents[ext]
	if !ok {
		return nil
	}
	s.lastExt, s.lastPay = ext, pay
	return pay
}

// materialize resolves an extent for writing, creating it on first touch.
func (s *Store) materialize(ext uint64) *mem.Payload {
	if pay := s.lookup(ext); pay != nil {
		return pay
	}
	pay := mem.NewPayload(extentBytes, mem.DefaultEager())
	s.extents[ext] = pay
	s.writtenLBAs += lbasPerExtent
	s.lastExt, s.lastPay = ext, pay
	return pay
}

// CapacityLBAs reports the namespace size in logical blocks.
func (s *Store) CapacityLBAs() uint64 { return s.capacityLBAs }

// InRange reports whether [slba, slba+nlb) fits the namespace.
func (s *Store) InRange(slba uint64, nlb uint32) bool {
	return nlb > 0 && slba < s.capacityLBAs && uint64(nlb) <= s.capacityLBAs-slba
}

// ReadLBAP transfers nlb blocks starting at slba into dst at dstOff by
// reference: present extents propagate their content descriptors, absent
// ones mark the destination range zero. This is the DMA data plane.
func (s *Store) ReadLBAP(slba uint64, nlb uint32, dst *mem.Payload, dstOff int64) error {
	n := int64(nlb) * nvme.LBASize
	if dst.Size()-dstOff < n {
		return fmt.Errorf("ssd: read buffer %d bytes, need %d", dst.Size()-dstOff, n)
	}
	if !s.InRange(slba, nlb) {
		return fmt.Errorf("ssd: read [%d,+%d) out of range", slba, nlb)
	}
	off := slba * nvme.LBASize
	for done := int64(0); done < n; {
		ext := (off + uint64(done)) / extentBytes
		extOff := int64((off + uint64(done)) % extentBytes)
		chunk := min(int64(extentBytes)-extOff, n-done)
		if pay := s.lookup(ext); pay != nil {
			mem.PayloadCopy(dst, dstOff+done, pay, extOff, chunk)
		} else {
			dst.SetZero(dstOff+done, chunk)
		}
		done += chunk
	}
	return nil
}

// WriteLBAP transfers nlb blocks from src at srcOff into the store by
// reference. Zero-write elision: an absent extent already reads as zeros,
// so writing zeros into it is a no-op on observable bytes and the store
// stays sparse — the dominant write path for synthetic benchmark payloads.
func (s *Store) WriteLBAP(slba uint64, nlb uint32, src *mem.Payload, srcOff int64) error {
	n := int64(nlb) * nvme.LBASize
	if src.Size()-srcOff < n {
		return fmt.Errorf("ssd: write buffer %d bytes, need %d", src.Size()-srcOff, n)
	}
	if !s.InRange(slba, nlb) {
		return fmt.Errorf("ssd: write [%d,+%d) out of range", slba, nlb)
	}
	off := slba * nvme.LBASize
	for done := int64(0); done < n; {
		ext := (off + uint64(done)) / extentBytes
		extOff := int64((off + uint64(done)) % extentBytes)
		chunk := min(int64(extentBytes)-extOff, n-done)
		if s.lookup(ext) == nil && src.RangeZero(srcOff+done, chunk) {
			done += chunk
			continue
		}
		mem.PayloadCopy(s.materialize(ext), extOff, src, srcOff+done, chunk)
		done += chunk
	}
	return nil
}

// AllocatedBytes reports the resident footprint of the sparse store.
func (s *Store) AllocatedBytes() int64 { return int64(len(s.extents)) * extentBytes }
