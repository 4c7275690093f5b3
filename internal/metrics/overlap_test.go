package metrics

import (
	"testing"

	"camsim/internal/sim"
)

func TestNilOverlapIsNoop(t *testing.T) {
	var o *Overlap
	o.IO(1) // must not panic
	o.Compute(1)
	if io, comp, ov, span := o.Report(); io+comp+ov+span != 0 {
		t.Fatal("nil meter reported overlap")
	}
}

func TestOverlapReport(t *testing.T) {
	e := sim.New()
	o := NewOverlap(e)
	e.Go("p", func(p *sim.Proc) {
		o.IO(1) // io from 0
		p.Sleep(10)
		o.Compute(1) // compute from 10
		p.Sleep(20)
		o.Compute(-1) // compute to 30
		p.Sleep(10)
		o.IO(-1) // io to 40
	})
	e.Run()
	io, comp, ov, span := o.Report()
	if span != 40 || io != 40 || comp != 20 || ov != 20 {
		t.Fatalf("io=%v comp=%v ov=%v span=%v", io, comp, ov, span)
	}
}

// TestOverlapStaysExactPastManyMarks: 200 000 marks, three times what a
// 65 536-event ring held, and the totals are still the analytic ones. Each
// 10 ns period has I/O in flight over [0, 6), compute over [2, 8), both
// over [2, 6); an unmatched completion first must not drive a depth
// negative.
func TestOverlapStaysExactPastManyMarks(t *testing.T) {
	const periods = 50_000
	e := sim.New()
	o := NewOverlap(e)
	e.Go("p", func(p *sim.Proc) {
		o.IO(-1)
		for range periods {
			o.IO(1)
			p.Sleep(2)
			o.Compute(1)
			p.Sleep(4)
			o.IO(-1)
			p.Sleep(2)
			o.Compute(-1)
			p.Sleep(2)
		}
	})
	e.Run()
	io, comp, ov, span := o.Report()
	if io != 6*periods || comp != 6*periods || ov != 4*periods || span != 10*periods-2 {
		t.Fatalf("io=%v comp=%v ov=%v span=%v", io, comp, ov, span)
	}
}

// TestOverlapMarksAllocateNothing: a mark is arithmetic on the meter's own
// fields, so metering a run of any length costs no garbage.
func TestOverlapMarksAllocateNothing(t *testing.T) {
	o := NewOverlap(sim.New())
	if avg := testing.AllocsPerRun(100, func() {
		o.IO(1)
		o.Compute(1)
		o.Compute(-1)
		o.IO(-1)
	}); avg != 0 {
		t.Fatalf("allocs per 4 marks = %.1f, want 0", avg)
	}
}
