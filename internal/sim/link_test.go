package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinkSingleTransferTime(t *testing.T) {
	e := New()
	l := e.NewLink("pcie", 1e9, 0) // 1 GB/s
	var done Time
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 1000) // 1000 B at 1 GB/s = 1 us
		done = p.Now()
	})
	e.Run()
	if done != 1000 {
		t.Fatalf("transfer done at %v, want 1000ns", done)
	}
}

func TestLinkPerTransferOverhead(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 500)
	var done Time
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 1000)
		done = p.Now()
	})
	e.Run()
	if done != 1500 {
		t.Fatalf("transfer done at %v, want 1500ns", done)
	}
}

func TestLinkFIFOContention(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 0)
	var d1, d2 Time
	e.Go("a", func(p *Proc) { l.Transfer(p, 1000); d1 = p.Now() })
	e.Go("b", func(p *Proc) { l.Transfer(p, 1000); d2 = p.Now() })
	e.Run()
	if d1 != 1000 || d2 != 2000 {
		t.Fatalf("completions = %v, %v; want 1000, 2000", d1, d2)
	}
}

// Property: aggregate link throughput never exceeds the configured rate.
func TestLinkRateCapQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		e := New()
		rate := 2e9
		l := e.NewLink("l", rate, 0)
		rng := NewRNG(seed)
		cnt := int(n%20) + 2
		var last Time
		for i := 0; i < cnt; i++ {
			sz := rng.Int63n(1<<20) + 1
			e.Go("p", func(p *Proc) {
				l.Transfer(p, sz)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		if last == 0 {
			return true
		}
		achieved := float64(l.TotalBytes()) / last.Seconds()
		return achieved <= rate*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkAchievedBandwidth(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 0)
	e.Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			l.Transfer(p, 100000)
		}
	})
	e.Run()
	got := l.AchievedBandwidth()
	if math.Abs(got-1e9)/1e9 > 0.01 {
		t.Fatalf("achieved bandwidth = %g, want ~1e9", got)
	}
}

func TestLinkUtilizationIdle(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 0)
	e.Go("p", func(p *Proc) {
		l.Transfer(p, 1000) // busy 0-1000
		p.Sleep(1000)       // idle 1000-2000
	})
	e.Run()
	if u := l.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
}

func TestLinkReserveNonBlocking(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 0)
	end1 := l.Reserve(1000)
	end2 := l.Reserve(1000)
	if end1 != 1000 || end2 != 2000 {
		t.Fatalf("reservations end at %v, %v; want 1000, 2000", end1, end2)
	}
}
