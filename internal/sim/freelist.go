package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// slabLen is how many records a FreeList carves from one allocation.
const slabLen = 64

// checked turns on FreeList's lifetime checks: true in test binaries, false
// in every other. sim's own tests flip it, only while no list has a record
// parked.
var checked = testing.Testing()

// FreeList hands out *T records for one owner: Get pops the most recently
// Put record or, on a miss, carves the next one out of a slab of slabLen, so
// a pool's growth to its high-water mark costs one allocation per 64 records
// instead of one each. An owner that never calls Put uses it as a plain
// carver. Records come back as they were Put (a carved one is zero); a
// record never reaches its slab neighbours. The zero FreeList is ready.
//
// In test binaries a FreeList also enforces record lifetimes. Put saves the
// record, zeroes it and marks it parked, so a stale read through a pointer
// that was Put sees zero values; Put panics on a record already parked, and
// Get panics on one written while parked before restoring it.
type FreeList[T any] struct {
	free []*T
	slab []T

	// Checked lists only: whether each record ever Put is parked now (a key
	// is never deleted, so steady-state recycling adds none and allocates
	// nothing), and free[i] as it was Put.
	parked map[*T]bool
	saved  []T
}

// Get returns a recycled record, or a zero one carved from the slab.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
		if checked {
			f.unpark(r, n-1)
		}
		f.free[n-1] = nil // the dead capacity must not pin what it handed out
		f.free = f.free[:n-1]
		return r
	}
	if len(f.slab) == 0 {
		f.slab = make([]T, slabLen)
	}
	r := &f.slab[0]
	f.slab = f.slab[1:]
	return r
}

// Put parks r for the next Get. r need not have come from this list.
func (f *FreeList[T]) Put(r *T) {
	if checked {
		f.park(r)
	}
	f.free = append(f.free, r)
}

// park saves r, zeroes it and marks it parked.
func (f *FreeList[T]) park(r *T) {
	if f.parked[r] {
		panic(fmt.Sprintf("sim: %T Put twice in its FreeList", *r))
	}
	if f.parked == nil {
		f.parked = map[*T]bool{}
	}
	f.parked[r] = true
	f.saved = append(f.saved, *r)
	*r = *new(T)
}

// unpark checks and restores r, the parked record at free[i].
func (f *FreeList[T]) unpark(r *T, i int) {
	for _, b := range unsafe.Slice((*byte)(unsafe.Pointer(r)), unsafe.Sizeof(*r)) {
		if b != 0 {
			panic(fmt.Sprintf("sim: %T written while parked in its FreeList", *r))
		}
	}
	f.parked[r] = false
	*r, f.saved[i] = f.saved[i], *new(T)
	f.saved = f.saved[:i]
}
