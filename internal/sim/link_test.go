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

// TestLinkFillsGaps: a transfer ready earlier than the busy time booked
// ahead of the clock takes the gaps before it, split across them if it does
// not fit in one, and ends where its last slice does.
func TestLinkFillsGaps(t *testing.T) {
	e := New()
	l := e.NewLink("l", 1e9, 0)
	if s, end := l.ReserveFrom(100, 100); s != 100 || end != 200 {
		t.Fatalf("first transfer holds [%d, %d), want [100, 200)", s, end)
	}
	if s, end := l.ReserveFrom(300, 100); s != 300 || end != 400 {
		t.Fatalf("second transfer holds [%d, %d), want [300, 400)", s, end)
	}
	// 250 ns of work ready at 0: [0, 100), [200, 300), then 50 ns from 400.
	if s, end := l.ReserveFrom(0, 250); s != 0 || end != 450 {
		t.Fatalf("gap-filling transfer holds [%d, %d), want [0, 450)", s, end)
	}
	// A transfer ready inside the now-continuous busy span starts at its end.
	if s, end := l.ReserveFrom(120, 10); s != 450 || end != 460 {
		t.Fatalf("transfer ready mid-span holds [%d, %d), want [450, 460)", s, end)
	}
}

// noop is a callback that only moves the clock to its instant.
type noop struct{}

func (noop) Run() {}

// advance moves e's clock forward by d through one event.
func advance(e *Engine, d Time) {
	e.ScheduleCallback(d, noop{})
	e.Run()
}

// FuzzLinkReserve checks the link against a brute-force oracle that holds
// one owner per nanosecond. The input's first byte sets the per-transfer
// overhead; each following 3-byte op either advances the clock or books a
// transfer ready anywhere from a little before the clock (clamped to it) to
// 2 µs after it. For every booking:
//
//	(a) the transfer gets exactly xferTime(n) of link time in [at, end),
//	    all of it free before, and starts at the first free instant;
//	(b) the link is never idle while a booked transfer is ready and
//	    unfinished: every instant of every [at, end) is busy;
//	(c) while ready instants have never decreased, end is the FIFO
//	    formula max(at, busyUntil) + xferTime(n) and start its max term;
//	(d) Utilization counts exactly the busy nanoseconds before the clock.
func FuzzLinkReserve(f *testing.F) {
	f.Add([]byte{0, 1, 0, 100, 1, 0, 100, 2, 10, 50, 0, 30, 0, 1, 0, 200})
	f.Add([]byte{3, 9, 200, 80, 17, 100, 60, 1, 0, 250, 25, 50, 255, 0, 120, 0, 9, 0, 40})
	f.Add([]byte{7, 33, 255, 9, 41, 10, 9, 49, 3, 200, 1, 0, 0, 0, 255, 7, 57, 99, 77, 1, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := New()
		defer e.Shutdown()
		l := e.NewLink("l", 1e9, Time(data[0]%16))
		var owner []int // owner[ns] = 1 + index of the transfer holding it, 0 if free
		type booking struct{ at, end Time }
		var booked []booking
		var busyUntil, lastAt Time // the FIFO oracle of (c)
		inOrder := true
		for op := data[1:]; len(op) >= 3; op = op[3:] {
			if op[0]%4 == 0 {
				advance(e, Time(op[1])|Time(op[2])<<8&0x700)
			} else {
				now := e.Now()
				at := now + Time(op[1])*Time(1+op[0]>>5)
				if op[0]%4 == 1 {
					at = now - Time(op[1]) // before the clock: ready now
				}
				n := int64(op[2])
				d := l.xferTime(n)
				start, end := l.ReserveFrom(at, n)
				at = max(at, now)
				if need := int(end) + 1; len(owner) < need {
					owner = append(owner, make([]int, need-len(owner))...)
				}
				// (a)
				first, free := end, Time(0)
				for ns := at; ns < end; ns++ {
					if owner[ns] == 0 {
						first = min(first, ns)
						free++
						owner[ns] = len(booked) + 1
					}
				}
				if d == 0 {
					for first = at; int(first) < len(owner) && owner[first] != 0; first++ {
					}
				}
				if free != d || start != first || (d > 0 && owner[end-1] != len(booked)+1) {
					t.Fatalf("transfer %d (at %d, %d ns): link gave [%d, %d) with %d free ns in it, first free %d",
						len(booked), at, d, start, end, free, first)
				}
				booked = append(booked, booking{at, end})
				// (c)
				inOrder = inOrder && at >= lastAt
				lastAt = at
				if inOrder {
					fifoStart := max(at, busyUntil)
					if start != fifoStart || end != fifoStart+d {
						t.Fatalf("in-order transfer %d (at %d, %d ns): [%d, %d), FIFO gives [%d, %d)",
							len(booked)-1, at, d, start, end, fifoStart, fifoStart+d)
					}
				}
				busyUntil = max(busyUntil, end)
			}
			// (b)
			for k, b := range booked {
				for ns := b.at; ns < b.end; ns++ {
					if owner[ns] == 0 {
						t.Fatalf("link idle at %d while transfer %d (ready %d, ends %d) is unfinished", ns, k, b.at, b.end)
					}
				}
			}
			// (d)
			now := e.Now()
			var spent Time
			for ns := Time(0); ns < now && int(ns) < len(owner); ns++ {
				if owner[ns] != 0 {
					spent++
				}
			}
			want := 0.0
			if now > 0 {
				want = float64(spent) / float64(now)
			}
			if got := l.Utilization(); got != want {
				t.Fatalf("utilization at %d = %v, want %d busy ns of %d = %v", now, got, spent, now, want)
			}
		}
	})
}

// linkStream books a steady stream of 4 KiB transfers on a PCIe-like link
// (21 GB/s, 32 ns per transfer) from devs devices: each round every device
// books one transfer ready `ahead` of the clock, give or take `jitter`, then
// the clock advances by the link time the round took, so the link runs
// full.
type linkStream struct {
	e             *Engine
	l             *Link
	rng           *RNG
	devs          int
	ahead, jitter Time
}

func newLinkStream(devs int, ahead, jitter Time) *linkStream {
	e := New()
	return &linkStream{e: e, l: e.NewLink("pcie", 21e9, 32), rng: NewRNG(5), devs: devs, ahead: ahead, jitter: jitter}
}

// rounds books n rounds of transfers.
func (s *linkStream) rounds(n int) {
	tick := Time(s.devs) * s.l.xferTime(4096)
	for ; n > 0; n-- {
		for d := 0; d < s.devs; d++ {
			at := s.e.Now() + s.ahead
			if s.jitter > 0 {
				at += Time(s.rng.Int63n(int64(2*s.jitter+1))) - s.jitter
			}
			s.l.ReserveFrom(at, 4096)
		}
		advance(s.e, tick)
	}
}

// TestLinkSteadyStreamAllocatesNothing: once the span list has grown to its
// working size, twelve devices booking jittered transfers ahead of the
// clock allocate nothing.
func TestLinkSteadyStreamAllocatesNothing(t *testing.T) {
	s := newLinkStream(12, 80*Microsecond, 8*Microsecond)
	defer s.e.Shutdown()
	s.rounds(4096)
	if a := testing.AllocsPerRun(20, func() { s.rounds(256) }); a != 0 {
		t.Fatalf("%v allocs per 256 rounds of 12 jittered reservations, want 0", a)
	}
}

// BenchmarkLinkReserve is the host cost of one link reservation, twelve per
// clock step: "inorder" books every transfer ready now (the hostmem and
// copy-engine links; the FIFO result), "12dev-jitter" books twelve
// devices' transfers ready 80 µs ± 8 µs ahead of the clock (an SSD's media
// phase), which fill the gaps between each other. Each fails if its steady
// state allocates.
func BenchmarkLinkReserve(b *testing.B) {
	for _, c := range []struct {
		name          string
		devs          int
		ahead, jitter Time
	}{
		{"inorder", 12, 0, 0},
		{"12dev-jitter", 12, 80 * Microsecond, 8 * Microsecond},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := newLinkStream(c.devs, c.ahead, c.jitter)
			defer s.e.Shutdown()
			s.rounds(4096) // the span list reaches its working size
			b.ReportAllocs()
			b.ResetTimer()
			s.rounds(b.N/c.devs + 1)
			b.StopTimer()
			if a := testing.AllocsPerRun(3, func() { s.rounds(256) }); a != 0 {
				b.Fatalf("%v allocs per 256 steady-state rounds, want 0", a)
			}
		})
	}
}
