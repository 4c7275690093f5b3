package sim

import (
	"fmt"
	"strings"
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

// TestFreeListParkedRecordReadsZero: in a test binary a record reads zero
// from Put to the next Get, which hands it back as it was Put — a stale read
// through a pointer that was Put sees zero values.
func TestFreeListParkedRecordReadsZero(t *testing.T) {
	var f FreeList[flRec]
	r := f.Get()
	r.id, r.ref = 7, &r.id
	f.Put(r)
	if r.id != 0 || r.ref != nil {
		t.Fatalf("parked record reads {id %d, ref %p}, want zero", r.id, r.ref)
	}
	if got := f.Get(); got != r || got.id != 7 || got.ref != &r.id {
		t.Fatalf("Get = %p {id %d, ref %p}, want the record restored as Put", got, got.id, got.ref)
	}
}

func TestFreeListDoublePutPanics(t *testing.T) {
	var f FreeList[flRec]
	r := f.Get()
	f.Put(r)
	if msg := panicMsg(func() { f.Put(r) }); !strings.Contains(msg, "Put twice") {
		t.Fatalf("second Put of a parked record: panic %q, want one naming the double Put", msg)
	}
}

func TestFreeListWriteWhileParkedPanics(t *testing.T) {
	var f FreeList[flRec]
	r := f.Get()
	f.Put(r)
	r.id = 1
	if msg := panicMsg(func() { f.Get() }); !strings.Contains(msg, "written while parked") {
		t.Fatalf("Get of a record written while parked: panic %q, want one naming the write", msg)
	}
}

// panicMsg runs fn and returns what it panicked with, or "" if it returned.
func panicMsg(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// FuzzFreeList drives a list through arbitrary Get/Put interleavings against
// a set model, with the lifetime check on and then off: Get never returns a
// record that is already out, a parked record comes back exactly as it was
// Put, and any other is zero. With the check on, a parked record reads zero
// and a second Put of one panics.
func FuzzFreeList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{1, 1, 0, 0xff, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		defer func(on bool) { checked = on }(checked)
		for _, on := range []bool{true, false} {
			checked = on
			var fl FreeList[flRec]
			var out []*flRec
			live, parked := map[*flRec]bool{}, map[*flRec]int{}
			for n, op := range ops {
				switch {
				case op&3 == 3 && len(fl.free) > 0:
					if !on {
						continue // unchecked, a double Put corrupts the list
					}
					r := fl.free[int(op>>2)%len(fl.free)]
					if msg := panicMsg(func() { fl.Put(r) }); msg == "" {
						t.Fatalf("second Put of parked record %p did not panic", r)
					}
				case op&1 == 0 || len(out) == 0:
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
				default:
					i := int(op>>1) % len(out)
					r := out[i]
					out[i] = out[len(out)-1]
					out = out[:len(out)-1]
					delete(live, r)
					parked[r] = r.id
					fl.Put(r)
					if on && *r != (flRec{}) {
						t.Fatalf("parked record reads {id %d, ref %p}, want zero", r.id, r.ref)
					}
				}
			}
		}
	})
}
