package trace

import (
	"strings"
	"testing"

	"camsim/internal/sim"
)

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Emit(KernelStart, "gpu0", "k", 1) // must not panic
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
	if io, comp, ov, span := tr.OverlapReport(); io+comp+ov+span != 0 {
		t.Fatal("nil tracer reported overlap")
	}
}

func TestEmitAndOrder(t *testing.T) {
	e := sim.New()
	tr := New(e, 16)
	e.Go("p", func(p *sim.Proc) {
		tr.Emit(KernelStart, "gpu0", "train", 100)
		p.Sleep(50)
		tr.Emit(KernelEnd, "gpu0", "train", 100)
	})
	e.Run()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != KernelStart || evs[1].Kind != KernelEnd {
		t.Fatal("kinds wrong")
	}
	if evs[1].At != 50 {
		t.Fatalf("second event at %v", evs[1].At)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	e := sim.New()
	tr := New(e, 3)
	for i := 0; i < 5; i++ {
		tr.Emit(Custom, "a", "", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d", len(evs))
	}
	if evs[0].Arg != 2 || evs[2].Arg != 4 {
		t.Fatalf("wrong window: %+v", evs)
	}
}

func TestOverlapReport(t *testing.T) {
	e := sim.New()
	tr := New(e, 16)
	e.Go("p", func(p *sim.Proc) {
		tr.Emit(BatchPublish, "cam", "prefetch", 1) // io from 0
		p.Sleep(10)
		tr.Emit(KernelStart, "gpu0", "train", 0) // compute from 10
		p.Sleep(20)
		tr.Emit(KernelEnd, "gpu0", "train", 0) // compute to 30
		p.Sleep(10)
		tr.Emit(BatchComplete, "cam", "prefetch", 1) // io to 40
	})
	e.Run()
	io, comp, ov, span := tr.OverlapReport()
	if span != 40 || io != 40 || comp != 20 || ov != 20 {
		t.Fatalf("io=%v comp=%v ov=%v span=%v", io, comp, ov, span)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero capacity")
		}
	}()
	New(sim.New(), 0)
}

func TestKindStrings(t *testing.T) {
	for k := BatchPublish; k <= Custom; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Fatalf("kind %d lacks a name", k)
		}
	}
}

// TestAllocsPerEmit pins the hot-path guarantee the harness relies on:
// once the ring reaches capacity, Emit stores by value into pre-reserved
// storage and never allocates — tracing a multi-million-event run costs
// no GC pressure beyond the fixed ring. Same style as the sim/store
// ceilings: prewarm past one-time growth, then assert a small absolute
// ceiling on a measured batch.
func TestAllocsPerEmit(t *testing.T) {
	const batch = 100
	e := sim.New()
	tr := New(e, 64) // smaller than batch: exercises the wrapped path too
	warm := func() {
		for i := 0; i < batch; i++ {
			tr.Emit(IOSubmit, "dev0", "read", int64(i))
		}
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 1 {
		t.Fatalf("allocs per %d-emit batch = %.1f, want <= 1 (%.3f/event)",
			batch, avg, avg/batch)
	}
}
