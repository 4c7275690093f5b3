package spdk

import (
	"testing"

	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// batchWatch stands between a batch and its commands: it records the
// latest completion instant it forwards and the instant of the last one.
type batchWatch struct {
	b             *Batch
	latest, final sim.Time
}

func (w *batchWatch) RequestDone(r *Request) {
	w.latest, w.final = max(w.latest, r.At), r.At
	w.b.RequestDone(r)
}

// watchQueued re-points every request of w's batch still waiting in a
// reactor's queue at w, keeping each queue's order, and reports how many
// it found.
func watchQueued(d *Driver, w *batchWatch) int {
	found := 0
	for _, rc := range d.reactors {
		for n := rc.queue.Len(); n > 0; n-- {
			r, _ := rc.queue.TryGet()
			if r.Sink == w.b {
				r.Sink = w
				found++
			}
			rc.queue.Put(r)
		}
	}
	return found
}

// finishAt records the instant its batch's done callback runs.
type finishAt struct {
	e    *sim.Engine
	at   sim.Time
	runs int
}

func (f *finishAt) Run() { f.at, f.runs = f.e.Now(), f.runs+1 }

// TestBatchFinishesAtItsLatestInstant: on six reactors over twelve devices,
// each reactor running ahead of the engine on its own timeline, the last
// command delivered to a batch need not carry its latest instant; the batch
// must still finish exactly at that latest instant, never before a
// command's completion.
func TestBatchFinishesAtItsLatestInstant(t *testing.T) {
	const ssds, reactors, batchBlocks, batches = 12, 6, 256, 6
	r := newRig(ssds)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, reactors)
	r.startAll(d)
	defer r.e.Shutdown()
	if n := len(d.reactors); n != reactors {
		t.Fatalf("%d reactors, want %d", n, reactors)
	}
	buf := r.g.AllocPinned("dst", batchBlocks*4096)
	bs := make([]Batch, batches)
	ws := make([]batchWatch, batches)
	fs := make([]finishAt, batches)
	open := func(i int) *Batch {
		fs[i].e, ws[i].b = r.e, &bs[i]
		bs[i].Open(d, &fs[i])
		return &bs[i]
	}
	watch := func(i, want int) {
		if n := watchQueued(d, &ws[i]); n != want {
			t.Errorf("batch %d: %d commands queued to watch, want %d", i, n, want)
		}
	}
	r.e.Go("gpu", func(p *sim.Proc) {
		// Batch 0 reads 30 blocks on device 0 while batch 1 reads 200 on
		// device 6, which reactor 0 also owns: device 0's completions pile
		// up behind that submission run and go out in one completion run,
		// ahead of the clock. Batch 0's last read, on device 1 (reactor 1)
		// 80 µs later, is delivered after that run but at an earlier
		// instant than the run's end.
		late, filler := open(0), open(1)
		for k := range 30 {
			late.Add(nvme.OpRead, 0, uint64(8*k), 4096, buf.Addr)
		}
		for k := range 200 {
			filler.Add(nvme.OpRead, 6, uint64(8*k), 4096, buf.Addr)
		}
		watch(0, 30)
		watch(1, 200)
		filler.Close()
		p.Sleep(80 * sim.Microsecond)
		late.Add(nvme.OpRead, 1, 0, 4096, buf.Addr)
		watch(0, 1)
		late.Close()
		// Then, once those are done, batches of random blocks over every
		// device.
		p.Sleep(200 * sim.Microsecond)
		rng := sim.NewRNG(3)
		for i := 2; i < batches; i++ {
			b := open(i)
			for k := range batchBlocks {
				blk := uint64(rng.Int63n(1 << 22))
				b.Add(nvme.OpRead, int(blk%ssds), blk/ssds*8, 4096, buf.Addr+mem.Addr(k*4096))
			}
			watch(i, batchBlocks)
			b.Close()
			p.Sleep(20 * sim.Microsecond)
		}
	})
	r.e.Run()
	if w := ws[0]; w.final >= w.latest {
		t.Errorf("batch 0's last delivery carries %d ns, its latest instant is %d ns: the shape no longer delivers out of instant order",
			int64(w.final), int64(w.latest))
	}
	for i := range bs {
		if fs[i].runs != 1 || bs[i].Failed != 0 {
			t.Fatalf("batch %d: done ran %d times, %d commands failed; want once and none", i, fs[i].runs, bs[i].Failed)
		}
		if fs[i].at != ws[i].latest {
			t.Errorf("batch %d finished at %d ns, its latest command completed at %d ns", i, int64(fs[i].at), int64(ws[i].latest))
		}
	}
}

// TestBatchSplitsAtMDTS: Add splits a transfer into commands of at most
// MaxTransfer bytes, each at its own LBA and address, and runs done once
// all of them have completed.
func TestBatchSplitsAtMDTS(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	defer r.e.Shutdown()
	buf := r.hm.Alloc("b", 300<<10)
	var b Batch
	f := &finishAt{e: r.e}
	b.Open(d, f)
	b.Add(nvme.OpRead, 0, 64, 300<<10, buf.Addr)
	type cmd struct {
		slba uint64
		nlb  uint32
		addr mem.Addr
	}
	var got []cmd
	rc := d.reactors[0]
	for n := rc.queue.Len(); n > 0; n-- {
		req, _ := rc.queue.TryGet()
		got = append(got, cmd{req.SLBA, req.NLB, req.Addr})
		rc.queue.Put(req)
	}
	want := []cmd{{64, 256, buf.Addr}, {320, 256, buf.Addr + 128<<10}, {576, 88, buf.Addr + 256<<10}}
	if len(got) != len(want) {
		t.Fatalf("Add queued %d commands, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("command %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	b.Close()
	r.e.Run()
	if f.runs != 1 || b.Failed != 0 {
		t.Fatalf("done ran %d times, %d commands failed; want once and none", f.runs, b.Failed)
	}
}
