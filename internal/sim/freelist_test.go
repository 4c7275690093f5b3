package sim

import (
	"testing"
	"unsafe"
)

type flRec struct {
	id  int
	ref *int
}

func TestFreeListReusesLIFO(t *testing.T) {
	var f FreeList[flRec]
	a, b := f.Get(), f.Get()
	a.id, b.id = 1, 2
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b || got.id != 2 {
		t.Fatalf("first Get after Put(a), Put(b) = %p (id %d), want b with its fields as Put", got, got.id)
	}
	if got := f.Get(); got != a {
		t.Fatalf("second Get = %p, want a", got)
	}
}

// TestFreeListMissCarvesOneSlab: a miss hands out slabLen distinct records
// from one allocation, laid out back to back, and nothing per record.
func TestFreeListMissCarvesOneSlab(t *testing.T) {
	var f FreeList[flRec]
	var recs [slabLen]*flRec
	// AllocsPerRun warms up with one call, which drains the first slab; the
	// measured call is the second slab, whole.
	if n := testing.AllocsPerRun(1, func() {
		for i := range recs {
			recs[i] = f.Get()
		}
	}); n != 1 {
		t.Fatalf("%v allocations for %d records, want one slab", n, slabLen)
	}
	for i := 1; i < slabLen; i++ {
		if d := uintptr(unsafe.Pointer(recs[i])) - uintptr(unsafe.Pointer(recs[i-1])); d != unsafe.Sizeof(flRec{}) {
			t.Fatalf("records %d and %d are %d bytes apart, want one slab of adjacent records", i-1, i, d)
		}
	}
	if recs[0].id != 0 || recs[0].ref != nil {
		t.Fatal("carved record is not zero")
	}
}

func TestFreeListPutForeignRecord(t *testing.T) {
	var f FreeList[flRec]
	own := &flRec{id: 7}
	f.Put(own)
	if got := f.Get(); got != own || got.id != 7 {
		t.Fatalf("Get = %p, want the record made elsewhere", got)
	}
}

// TestFreeListClearsVacatedSlot: the capacity left behind a pop must not
// keep pointing at the record handed out, or every record ever popped stays
// reachable from the list for as long as its owner lives. Seven of the pools
// FreeList replaced (bam's getSyncSink and getBatch, oskernel's getSubmit,
// getReq and getDeliver, spdk's getMachine, kvcache's newInflight) popped
// without clearing.
func TestFreeListClearsVacatedSlot(t *testing.T) {
	var f FreeList[flRec]
	for i := 0; i < 5; i++ {
		f.Put(&flRec{id: i})
	}
	for f.Get().id != 2 {
	}
	for i, r := range f.free[:cap(f.free)] {
		if (i < 2) != (r != nil) {
			t.Fatalf("slot %d of the list's array holds %p with 2 records parked", i, r)
		}
	}
}

// FuzzFreeList drives a list through arbitrary Get/Put interleavings against
// a set model: Get never returns a record that is already out, a parked
// record comes back exactly as it was Put, and any other is zero.
func FuzzFreeList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{1, 1, 0, 0xff, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var fl FreeList[flRec]
		var out []*flRec
		live, parked := map[*flRec]bool{}, map[*flRec]int{}
		for n, op := range ops {
			if op&1 == 0 || len(out) == 0 {
				r := fl.Get()
				if live[r] {
					t.Fatalf("Get returned %p, which is still out", r)
				}
				if want, ok := parked[r]; r.id != want || (ok && r.ref != &r.id) || (!ok && r.ref != nil) {
					t.Fatalf("Get returned {id %d, ref %p}, want id %d (parked: %v)", r.id, r.ref, want, ok)
				}
				delete(parked, r)
				r.id, r.ref = n+1, &r.id
				live[r] = true
				out = append(out, r)
				continue
			}
			i := int(op>>1) % len(out)
			r := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			delete(live, r)
			parked[r] = r.id
			fl.Put(r)
		}
	})
}
