package spdk

import (
	"testing"

	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// loadSink keeps a driver at a fixed number of outstanding pooled 4 KiB
// reads, striped over every device, issuing the next from each completion.
type loadSink struct {
	d      *Driver
	devs   int
	addr   mem.Addr
	rng    *sim.RNG
	n      int
	issued int
	done   int
}

func (s *loadSink) submit() {
	r := s.d.GetRequest()
	r.Op, r.Dev, r.NLB, r.Addr, r.Sink = nvme.OpRead, s.issued%s.devs, 8, s.addr, s
	r.SLBA = uint64(s.rng.Int63n(1<<21)) * 8
	s.issued++
	s.d.Submit(r)
}

func (s *loadSink) RequestDone(r *Request) {
	if r.Status != nvme.StatusSuccess {
		panic("request failed: " + r.Status.String())
	}
	s.done++
	if s.issued < s.n {
		s.submit()
	}
}

// newLoad builds a driver over nDevs SSDs and returns a function that pushes
// n reads through it with `outstanding` in flight and runs the engine dry.
func newLoad(tb testing.TB, nDevs, threads int, cfg Config, outstanding int) (run func(n int), r *rig) {
	r = newRig(nDevs)
	d := New(r.e, cfg, r.hm, r.space, r.devs, threads)
	r.startAll(d)
	s := &loadSink{d: d, devs: nDevs, addr: r.hm.Alloc("load", 4096).Addr, rng: sim.NewRNG(13)}
	return func(n int) {
		s.n, s.issued, s.done = n, 0, 0
		for s.issued < n && s.issued < outstanding {
			s.submit()
		}
		r.e.Run()
		if s.done != n {
			tb.Fatalf("%d of %d requests completed", s.done, n)
		}
	}, r
}

// BenchmarkSubmitReap is the spdk layer's host cost per request, Submit to
// RequestDone, on the 12-SSD platform at queue depth 64 per SSD (the shape
// of bench's spdk.ns_per_req drive). It includes the devices and the engine
// under the driver.
func BenchmarkSubmitReap(b *testing.B) {
	run, r := newLoad(b, 12, 6, DefaultConfig(), 64*12)
	defer r.e.Shutdown()
	run(8192) // pools and rings reach their high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if a := testing.AllocsPerRun(3, func() { run(4096) }); a != 0 {
		b.Fatalf("%v allocs per 4096 steady-state requests, want 0", a)
	}
}

// TestQueueFullSteadyStateAllocatesNothing drives one device whose queue
// pair holds 7 commands with 64 outstanding, so nearly every request waits
// in Reactor.pending. The deferred queue must recycle its storage: it used
// to be a slice popped with pending[1:], which regrew (and kept every popped
// request reachable) for as long as it never ran empty.
func TestQueueFullSteadyStateAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	run, r := newLoad(t, 1, 1, cfg, 64)
	defer r.e.Shutdown()
	run(2048)
	if a := testing.AllocsPerRun(5, func() { run(2048) }); a != 0 {
		t.Fatalf("%v allocs per 2048 requests through a full queue pair, want 0", a)
	}
}
