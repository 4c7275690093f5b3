package sim

// slabLen is how many records a FreeList carves from one allocation.
const slabLen = 64

// FreeList hands out *T records for one owner: Get pops the most recently
// Put record or, on a miss, carves the next one out of a slab of slabLen, so
// a pool's growth to its high-water mark costs one allocation per 64 records
// instead of one each. An owner that never calls Put uses it as a plain
// carver. Records come back as they were Put (a carved one is zero); a
// record never reaches its slab neighbours. The zero FreeList is ready.
type FreeList[T any] struct {
	free []*T
	slab []T
}

// Get returns a recycled record, or a zero one carved from the slab.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
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
func (f *FreeList[T]) Put(r *T) { f.free = append(f.free, r) }
