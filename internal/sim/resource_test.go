package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceImmediateAcquire(t *testing.T) {
	e := New()
	r := e.NewResource("r", 4)
	var got Time = -1
	e.Go("p", func(p *Proc) {
		r.Acquire(p, 3)
		got = p.Now()
		r.Release(3)
	})
	e.Run()
	if got != 0 {
		t.Fatalf("acquired at %v, want 0", got)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after release", r.InUse())
	}
}

func TestResourceBlocksUntilRelease(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	var second Time = -1
	e.Go("first", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(100)
		r.Release(1)
	})
	e.Go("second", func(p *Proc) {
		r.Acquire(p, 1)
		second = p.Now()
		r.Release(1)
	})
	e.Run()
	if second != 100 {
		t.Fatalf("second acquired at %v, want 100", second)
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	e := New()
	r := e.NewResource("r", 2)
	var order []string
	e.Go("hog", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10)
		r.Release(2)
	})
	// big arrives before small; FIFO means small must not jump the queue
	// even though one unit is free once hog releases half... hog releases
	// all at once here, so check ordering of grant events instead.
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if fmt.Sprint(order) != "[big small]" {
		t.Fatalf("admission order = %v, want [big small]", order)
	}
}

func TestResourceHeadOfLineBlocking(t *testing.T) {
	// A queued large request must block later small ones even when the
	// small one would fit: strict FIFO.
	e := New()
	r := e.NewResource("r", 2)
	var smallAt Time = -1
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(50)
		r.Release(1)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 2) // needs both units; waits for holder
		p.Sleep(10)
		r.Release(2)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1) // one unit free, but big is ahead
		smallAt = p.Now()
		r.Release(1)
	})
	e.Run()
	if smallAt != 60 { // holder releases at 50, big runs 50-60, then small
		t.Fatalf("small acquired at %v, want 60", smallAt)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New()
	r := e.NewResource("r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty resource failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded on full resource")
	}
	r.Release(2)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestResourceZeroAcquireNoop(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	e.Go("p", func(p *Proc) {
		r.Acquire(p, 0)
		if r.InUse() != 0 {
			t.Errorf("InUse = %d after zero acquire", r.InUse())
		}
	})
	e.Run()
}

func TestResourceOverCapacityPanics(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		r.Acquire(p, 2)
	})
	e.Run()
	if !panicked {
		t.Fatal("Acquire beyond capacity did not panic")
	}
}

func TestResourceReleaseBelowZeroPanics(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release below zero did not panic")
		}
	}()
	r.Release(1)
}

func TestResourceUse(t *testing.T) {
	e := New()
	r := e.NewResource("r", 1)
	var done Time
	use := func(p *Proc, d Time) {
		r.Acquire(p, 1)
		p.Sleep(d)
		r.Release(1)
	}
	e.Go("a", func(p *Proc) { use(p, 30) })
	e.Go("b", func(p *Proc) {
		use(p, 20)
		done = p.Now()
	})
	e.Run()
	if done != 50 {
		t.Fatalf("b finished at %v, want 50", done)
	}
}

// Property: for any pattern of acquires/releases, inUse never exceeds
// capacity and never goes negative, and all waiters eventually run when
// everything is released.
func TestResourceInvariantQuick(t *testing.T) {
	f := func(seed uint64, nProcs uint8) bool {
		n := int(nProcs%16) + 1
		e := New()
		cap := int64(4)
		r := e.NewResource("r", cap)
		rng := NewRNG(seed)
		completed := 0
		ok := true
		for i := 0; i < n; i++ {
			want := rng.Int63n(cap) + 1
			hold := Time(rng.Int63n(100))
			e.Go(fmt.Sprint("p", i), func(p *Proc) {
				r.Acquire(p, want)
				if r.InUse() > cap || r.InUse() < 0 {
					ok = false
				}
				p.Sleep(hold)
				r.Release(want)
				completed++
			})
		}
		e.Run()
		return ok && completed == n && r.InUse() == 0 && r.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceAcquireUpTo: an elastic request admitted at once takes what is
// free up to its max; requests a Release admits together hold their
// minimums and split what is left in admission order — the same split
// under every order the engine resumes them in — and none tops up while a
// waiter stays queued.
func TestResourceAcquireUpTo(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		e := New()
		r := e.NewResource("r", 10)
		var grants [4]int64
		e.Go("holder", func(p *Proc) {
			grants[0] = r.AcquireUpTo(p, 2, 8)
			p.Sleep(100)
			r.Release(grants[0])
		})
		for i, max := range []int64{4, 5} {
			e.Go(fmt.Sprint("w", i), func(p *Proc) {
				p.Sleep(Time(10 + i))
				grants[i+1] = r.AcquireUpTo(p, 3, max)
			})
		}
		e.Go("blocked", func(p *Proc) {
			p.Sleep(20)
			grants[3] = r.AcquireUpTo(p, 9, 9)
		})
		if seed != 0 {
			e.PermuteTies(seed)
		}
		e.Run()
		// At 0 the holder takes 8 of 10; w0 and w1 queue behind the
		// missing minimum and the 9-unit request behind them. The release
		// at 100 admits w0 and w1 with 3 each, but the 9 stays queued, so
		// neither tops up.
		if grants != [4]int64{8, 3, 3, 0} || r.InUse() != 6 || r.QueueLen() != 1 {
			t.Fatalf("seed %d: grants %v, %d in use, %d queued; want [8 3 3 0], 6 and 1", seed, grants, r.InUse(), r.QueueLen())
		}
		e.Shutdown()

		e = New()
		r = e.NewResource("r", 10)
		grants = [4]int64{}
		e.Go("holder", func(p *Proc) {
			grants[0] = r.AcquireUpTo(p, 2, 8)
			p.Sleep(100)
			r.Release(grants[0])
		})
		for i, max := range []int64{6, 6} {
			e.Go(fmt.Sprint("w", i), func(p *Proc) {
				p.Sleep(Time(10 + i))
				grants[i+1] = r.AcquireUpTo(p, 3, max)
				p.Sleep(50)
				r.Release(grants[i+1])
			})
		}
		if seed != 0 {
			e.PermuteTies(seed)
		}
		e.Run()
		// With nothing left queued, w0 and w1 hold 3 each and top up
		// from the remaining 4 in admission order: w0 to its max of 6, w1
		// by the one unit left.
		if grants[1] != 6 || grants[2] != 4 || r.InUse() != 0 {
			t.Fatalf("seed %d: grants %v, %d in use; want w0 6, w1 4 and 0", seed, grants, r.InUse())
		}
	}
}
