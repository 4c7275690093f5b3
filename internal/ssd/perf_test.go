package ssd

import (
	"testing"

	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// reaper feeds one queue pair to a fixed depth and reaps it from the
// completion signal, with no driver in between.
type reaper struct {
	r      *rig
	addr   mem.Addr
	rng    *sim.RNG
	free   []uint16 // command identifiers not in flight
	n      int
	issued int
	done   int
}

func (p *reaper) Run() {
	qp := p.r.qp
	qp.CQ.OnPost.Reset()
	for {
		c, ok := qp.CQ.Poll()
		if !ok {
			break
		}
		if c.Status != nvme.StatusSuccess {
			panic("command failed: " + c.Status.String())
		}
		p.done++
		p.free = append(p.free, c.CID)
	}
	pushed := false
	for p.issued < p.n && len(p.free) > 0 {
		cid := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		sqe := nvme.SQE{Opcode: nvme.OpRead, CID: cid, NSID: 1, PRP1: uint64(p.addr),
			SLBA: uint64(p.rng.Int63n(4096)) * 8, NLB: 8}
		if err := qp.SQ.Push(sqe); err != nil {
			panic(err)
		}
		p.issued++
		pushed = true
	}
	if pushed {
		p.r.dev.Ring(qp)
	}
	if p.done < p.n {
		qp.CQ.OnPost.WaitCallback(0, p)
	}
}

// BenchmarkReadCmd is the ssd layer's host cost per 4 KiB read, from SQE
// fetch to posted CQE through a real Device at 32 commands in flight (the
// shape of bench's ssd.ns_per_read_cmd drive). It includes the engine and
// the PCIe reservation under the device.
func BenchmarkReadCmd(b *testing.B) {
	r := newRig(b, DefaultConfig(), 64)
	defer r.e.Shutdown()
	p := &reaper{r: r, addr: r.hm.Alloc("data", 4096).Addr, rng: sim.NewRNG(7)}
	for cid := uint16(0); cid < 32; cid++ {
		p.free = append(p.free, cid)
	}
	run := func(n int) {
		p.n, p.issued, p.done = n, 0, 0
		r.e.ScheduleCallback(0, p)
		r.e.Run()
		if p.done != n {
			b.Fatalf("%d of %d commands completed", p.done, n)
		}
	}
	run(4096) // the command pool reaches its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if a := testing.AllocsPerRun(3, func() { run(4096) }); a != 0 {
		b.Fatalf("%v allocs per 4096 steady-state reads, want 0", a)
	}
}

// BenchmarkStoreAtRest is the data plane under cam-mixed-4k's working set,
// with no engine around it: 32 768 4 KiB blocks striped over 12 stores, each
// written once, then random blocks alternately overwritten from and read back
// into an eager 32 MiB payload (a pinned buffer whose bytes the application
// reads). "store" is one page cell per block: a table probe, the chunk's
// header and one copy, in place on a write. "flat" is the floor: the same
// walk over a [][]byte with plain copies. ns/op is per block moved; the gap
// between the two is what the page table and the chunk header cost on top of
// the copy. Both halves fail if their steady state allocates.
func BenchmarkStoreAtRest(b *testing.B) {
	const (
		blocks, stores = 32768, 12
		bb, lbas       = 4096, 4096 / nvme.LBASize
		bufBlocks      = 32 << 20 / bb
	)
	// walk writes every block once, times b.N random moves, then checks
	// that more of them allocate nothing.
	walk := func(b *testing.B, move func(write bool, blk uint64, bufOff int64)) {
		for blk := uint64(0); blk < blocks; blk++ {
			move(true, blk, int64(blk%bufBlocks)*bb)
		}
		rng := sim.NewRNG(7)
		step := func(i int) { move(i&1 == 0, uint64(rng.Int63n(blocks)), rng.Int63n(bufBlocks)*bb) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		i := 0
		if a := testing.AllocsPerRun(1000, func() { step(i); i++ }); a != 0 {
			b.Fatalf("%v allocs per steady-state block moved, want 0", a)
		}
	}
	fill := func(buf []byte) { // nonzero everywhere: no write is elided
		for i := range buf {
			buf[i] = byte(i>>12) | 1
		}
	}
	b.Run("store", func(b *testing.B) {
		buf := mem.NewPayload(bufBlocks*bb, true)
		defer buf.Release()
		fill(buf.Bytes())
		var st [stores]*Store
		for i := range st {
			st[i] = NewStore((blocks/stores + 1) * lbas)
		}
		walk(b, func(write bool, blk uint64, off int64) {
			s, lba, err := st[blk%stores], blk/stores*lbas, error(nil)
			if write {
				err = s.WriteLBAP(lba, lbas, buf, off)
			} else {
				err = s.ReadLBAP(lba, lbas, buf, off)
			}
			if err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("flat", func(b *testing.B) {
		buf := make([]byte, bufBlocks*bb)
		fill(buf)
		flat := make([][]byte, blocks)
		walk(b, func(write bool, blk uint64, off int64) {
			if flat[blk] == nil {
				flat[blk] = make([]byte, bb)
			}
			if write {
				copy(flat[blk], buf[off:off+bb])
			} else {
				copy(buf[off:off+bb], flat[blk])
			}
		})
	})
}

// TestFreedBufferFailsDMA: a command aimed at a buffer after it was freed
// must fail with a DMA error, even right after a command that hit the same
// buffer. The freed buffer's payload header is recycled into the next
// payload created, so a device that cached the region it last resolved would
// not fail by itself: it would DMA into whatever took the header.
func TestFreedBufferFailsDMA(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	buf := r.hm.Alloc("victim", 8192)
	var statuses []nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		read := func(addr mem.Addr) {
			cid := uint16(len(statuses))
			c := r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: cid, PRP1: uint64(addr), SLBA: 0, NLB: 8})
			statuses = append(statuses, c.Status)
		}
		read(buf.Addr)
		read(buf.Addr + 4096) // the same buffer again
		old := buf.Addr
		buf.Free()
		squatter := mem.NewPayload(8192, false) // takes the recycled header
		defer squatter.Release()
		read(old)
		read(r.hm.Alloc("fresh", 8192).Addr)
	})
	r.e.Run()
	want := []nvme.Status{nvme.StatusSuccess, nvme.StatusSuccess, nvme.StatusDMAError, nvme.StatusSuccess}
	if len(statuses) != len(want) {
		t.Fatalf("%d commands completed, want %d", len(statuses), len(want))
	}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("command %d: %v, want %v (live, live, freed, fresh)", i, statuses[i], want[i])
		}
	}
}
