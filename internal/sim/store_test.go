package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// sinkFunc adapts a function to StoreSink.
type sinkFunc[T any] func(v T, ok bool)

func (f sinkFunc[T]) StoreItem(v T, ok bool) { f(v, ok) }

func TestStorePutThenGet(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	got, at := 0, Time(-1)
	s.GetCallback(sinkFunc[int](func(v int, ok bool) {
		if !ok {
			t.Error("sink got !ok")
		}
		got, at = v, e.Now()
	}))
	e.Schedule(10, func() { s.Put(7) })
	e.Run()
	if got != 7 || at != 10 {
		t.Fatalf("got %d at %v, want 7 at 10", got, at)
	}
}

func TestStoreFIFOOrder(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	for i := 0; i < 5; i++ {
		s.Put(i)
	}
	// Queued items are delivered synchronously, oldest first.
	var got []int
	for i := 0; i < 5; i++ {
		s.GetCallback(sinkFunc[int](func(v int, _ bool) { got = append(got, v) }))
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("got %v", got)
	}
}

func TestStoreMultipleGettersFIFO(t *testing.T) {
	e := New()
	s := NewStore[string](e, "s")
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		s.GetCallback(sinkFunc[string](func(v string, _ bool) {
			got = append(got, fmt.Sprintf("c%d:%s", i, v))
		}))
	}
	e.Schedule(5, func() {
		s.Put("x")
		s.Put("y")
		s.Put("z")
	})
	e.Run()
	if fmt.Sprint(got) != "[c0:x c1:y c2:z]" {
		t.Fatalf("got %v", got)
	}
}

func TestStoreTryGet(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	if _, ok := s.TryGet(); ok {
		t.Fatal("TryGet on empty store succeeded")
	}
	s.Put(3)
	v, ok := s.TryGet()
	if !ok || v != 3 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

func TestStoreCloseWakesGetters(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	var okAfterClose = true
	s.GetCallback(sinkFunc[int](func(_ int, ok bool) { okAfterClose = ok }))
	e.Schedule(10, s.Close)
	e.Run()
	if okAfterClose {
		t.Fatal("sink parked on a closed store got ok")
	}
}

func TestStoreCloseDrainsQueuedItems(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	s.Put(1)
	s.Close()
	var vals []int
	var lastOK bool
	for i := 0; i < 2; i++ {
		s.GetCallback(sinkFunc[int](func(v int, ok bool) {
			if ok {
				vals = append(vals, v)
			}
			lastOK = ok
		}))
	}
	if fmt.Sprint(vals) != "[1]" || lastOK {
		t.Fatalf("vals=%v lastOK=%v", vals, lastOK)
	}
}

// Property: everything Put is delivered exactly once, in order, for any
// interleaving of producer and consumer pacing.
func TestStoreConservationQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%64) + 1
		e := New()
		s := NewStore[int](e, "s")
		rng := NewRNG(seed)
		var got []int
		e.Go("pr", func(p *Proc) {
			for i := 0; i < count; i++ {
				s.Put(i)
				p.Sleep(Time(rng.Int63n(5)))
			}
		})
		// The consumer re-registers after a random think time, so it is
		// sometimes parked before the Put and sometimes finds it queued.
		var sink sinkFunc[int]
		sink = func(v int, ok bool) {
			got = append(got, v)
			if ok && len(got) < count {
				e.Schedule(Time(rng.Int63n(5)), func() { s.GetCallback(sink) })
			}
		}
		s.GetCallback(sink)
		e.Run()
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
