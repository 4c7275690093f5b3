// Package mem provides the simulated physical address space shared by every
// device in the platform: host DRAM, GPU HBM, and the controller-visible
// queue memory. DMA engines (SSD controllers) resolve target addresses
// through a Space exactly like a real IOMMU-less PCIe device would. What
// they move is a Payload, one page cell per 4 KiB page that shares chunks
// by reference and is real bytes wherever a consumer asks for them, so
// data written through one I/O stack is readable through another.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a simulated physical address.
type Addr uint64

// Kind classifies which device backs a physical range; transfer paths use it
// to decide which bandwidth links to charge.
type Kind uint8

const (
	// HostDRAM is CPU-attached memory; DMA to it consumes DRAM channel
	// bandwidth.
	HostDRAM Kind = iota
	// GPUHBM is GPU device memory reachable over PCIe peer-to-peer; DMA to
	// it bypasses host DRAM entirely (the property CAM's data plane relies
	// on).
	GPUHBM
)

func (k Kind) String() string {
	switch k {
	case HostDRAM:
		return "HostDRAM"
	case GPUHBM:
		return "GPUHBM"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Region is a contiguous registered physical range. Its content is a
// Payload: zero-copy transfers move references between payloads, and real
// bytes exist only where something materialized them.
type Region struct {
	Base Addr
	Size int64
	Pay  *Payload
	Kind Kind
	Name string
}

// End reports one past the last address of the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// Space is the platform physical address map. It is not safe for concurrent
// mutation; all simulation code runs single-threaded under the DES engine.
type Space struct {
	regions []*Region // sorted by Base, non-overlapping
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// RegisterPayload adds a payload-backed range. It panics on overlap —
// overlapping device windows would be a platform bug, not a runtime
// condition.
func (s *Space) RegisterPayload(name string, base Addr, pay *Payload, kind Kind) *Region {
	r := &Region{Base: base, Size: pay.Size(), Pay: pay, Kind: kind, Name: name}
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base >= base })
	if i > 0 && s.regions[i-1].End() > base {
		panic(fmt.Sprintf("mem: region %q overlaps %q", name, s.regions[i-1].Name))
	}
	if i < len(s.regions) && r.End() > s.regions[i].Base {
		panic(fmt.Sprintf("mem: region %q overlaps %q", name, s.regions[i].Name))
	}
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
	return r
}

// Unregister removes a previously registered region by base address.
func (s *Space) Unregister(base Addr) {
	for i, r := range s.regions {
		if r.Base == base {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("mem: Unregister of unknown base %#x", uint64(base)))
}

// lookup finds the region containing [addr, addr+n), without touching its
// payload.
func (s *Space) lookup(addr Addr, n int) (*Region, int64, error) {
	// Open-coded binary search for the first region ending past addr:
	// this sits on the per-DMA path, and the sort.Search closure was a
	// measurable allocation there.
	i, j := 0, len(s.regions)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s.regions[h].End() > addr {
			j = h
		} else {
			i = h + 1
		}
	}
	if i == len(s.regions) || addr < s.regions[i].Base {
		return nil, 0, fmt.Errorf("mem: unmapped address %#x", uint64(addr))
	}
	r := s.regions[i]
	off := int64(addr - r.Base)
	if off+int64(n) > r.Size {
		return nil, 0, fmt.Errorf("mem: range [%#x,+%d) crosses end of region %q", uint64(addr), n, r.Name)
	}
	return r, off, nil
}

// Resolve maps [addr, addr+n) to materialized backing bytes. The range
// must lie within a single region; crossing a region boundary is an error
// (real DMA would fault). Content-oblivious paths should use
// ResolvePayload instead, which does not materialize.
func (s *Space) Resolve(addr Addr, n int) ([]byte, Kind, error) {
	r, off, err := s.lookup(addr, n)
	if err != nil {
		return nil, 0, err
	}
	return r.Pay.Bytes()[off : off+int64(n) : off+int64(n)], r.Kind, nil
}

// ResolvePayload maps [addr, addr+n) to its region's payload and the
// offset of addr within it, without materializing anything. DMA engines
// use it to transfer content by reference.
func (s *Space) ResolvePayload(addr Addr, n int) (*Payload, int64, Kind, error) {
	r, off, err := s.lookup(addr, n)
	if err != nil {
		return nil, 0, 0, err
	}
	return r.Pay, off, r.Kind, nil
}

// Arena hands out non-overlapping addresses within a device window; each
// device (host DRAM allocator, GPU HBM allocator) owns one.
type Arena struct {
	name string
	next Addr
	end  Addr
}

// NewArena creates an allocator over [base, base+size).
func NewArena(name string, base Addr, size int64) *Arena {
	return &Arena{name: name, next: base, end: base + Addr(size)}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. It panics when the window is exhausted — simulated devices
// size their windows to the experiment.
func (a *Arena) Alloc(n int64, align int64) Addr {
	if align <= 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic("mem: alignment must be a power of two")
	}
	base := (uint64(a.next) + uint64(align-1)) &^ uint64(align-1)
	if Addr(base)+Addr(n) > a.end {
		panic(fmt.Sprintf("mem: arena %q exhausted (asked %d bytes)", a.name, n))
	}
	a.next = Addr(base) + Addr(n)
	return Addr(base)
}
