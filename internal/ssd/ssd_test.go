package ssd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"camsim/internal/calib"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
)

// rig wires one SSD to a fabric, host memory and one queue pair.
type rig struct {
	e     *sim.Engine
	space *mem.Space
	fab   *pcie.Fabric
	hm    *hostmem.Memory
	dev   *Device
	qp    *nvme.QueuePair
}

func newRig(t testing.TB, cfg Config, depth uint32) *rig {
	t.Helper()
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	dev := New(e, "nvme0", cfg, fab, space)
	sqMem := hm.Alloc("sq", int64(depth*nvme.SQESize))
	cqMem := hm.Alloc("cq", int64(depth*nvme.CQESize))
	qp := dev.CreateQueuePair("qp0", sqMem.MakeEager(), cqMem.MakeEager(), depth)
	dev.Start()
	return &rig{e: e, space: space, fab: fab, hm: hm, dev: dev, qp: qp}
}

// TestNewRejectsForeignFabric pins New's wiring check: a device built on
// one engine against a fabric that lives on another would book DMA on a
// clock it does not advance, so New panics naming the device.
func TestNewRejectsForeignFabric(t *testing.T) {
	space := mem.NewSpace()
	fab := pcie.New(sim.New(), pcie.DefaultConfig())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "nvme0") || !strings.Contains(msg, "different engine than its fabric") {
			t.Errorf("panic = %q, want the foreign-fabric check naming nvme0", msg)
		}
	}()
	New(sim.New(), "nvme0", DefaultConfig(), fab, space)
}

// submitWait pushes one command and blocks p until its completion arrives.
func (r *rig) submitWait(p *sim.Proc, sqe nvme.SQE) nvme.CQE {
	if err := r.qp.SQ.Push(sqe); err != nil {
		panic(err)
	}
	r.dev.Ring(r.qp)
	for {
		if c, ok := r.qp.CQ.Poll(); ok {
			return c
		}
		if !r.qp.CQ.OnPost.Fired() {
			p.Wait(r.qp.CQ.OnPost)
		}
		r.qp.CQ.OnPost.Reset()
	}
}

func TestReadAfterWriteRoundTrip(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	wbuf := r.hm.Alloc("w", 4096)
	rbuf := r.hm.Alloc("r", 4096)
	for i := range wbuf.Payload().Bytes() {
		wbuf.Payload().Bytes()[i] = byte(i * 7)
	}
	var got nvme.CQE
	r.e.Go("host", func(p *sim.Proc) {
		got = r.submitWait(p, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, PRP1: uint64(wbuf.Addr), SLBA: 100, NLB: 8})
		if got.Status != nvme.StatusSuccess {
			t.Errorf("write status = %v", got.Status)
		}
		got = r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 2, PRP1: uint64(rbuf.Addr), SLBA: 100, NLB: 8})
	})
	r.e.Run()
	if got.Status != nvme.StatusSuccess {
		t.Fatalf("read status = %v", got.Status)
	}
	if !bytes.Equal(rbuf.Payload().Bytes(), wbuf.Payload().Bytes()) {
		t.Fatal("read data != written data")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	rbuf := r.hm.Alloc("r", 4096)
	for i := range rbuf.Payload().Bytes() {
		rbuf.Payload().Bytes()[i] = 0xff
	}
	r.e.Go("host", func(p *sim.Proc) {
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(rbuf.Addr), SLBA: 0, NLB: 8})
	})
	r.e.Run()
	for _, b := range rbuf.Payload().Bytes() {
		if b != 0 {
			t.Fatal("unwritten LBA did not read as zero")
		}
	}
}

func TestLBAOutOfRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityBytes = 1 << 20 // 2048 LBAs
	r := newRig(t, cfg, 64)
	buf := r.hm.Alloc("b", 4096)
	var st nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		c := r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(buf.Addr), SLBA: 2048, NLB: 1})
		st = c.Status
	})
	r.e.Run()
	if st != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v, want LBAOutOfRange", st)
	}
}

func TestInvalidOpcode(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	var st nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		c := r.submitWait(p, nvme.SQE{Opcode: 0x7f, CID: 1, NLB: 1})
		st = c.Status
	})
	r.e.Run()
	if st != nvme.StatusInvalidOpcode {
		t.Fatalf("status = %v, want InvalidOpcode", st)
	}
}

func TestUnmappedDMAAddress(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	var st nvme.Status
	r.e.Go("host", func(p *sim.Proc) {
		c := r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: 0xdead0000, SLBA: 0, NLB: 1})
		st = c.Status
	})
	r.e.Run()
	if st != nvme.StatusDMAError {
		t.Fatalf("status = %v, want DMAError", st)
	}
}

func TestReadLatencyNearConfigured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencyJitter = 0
	r := newRig(t, cfg, 64)
	buf := r.hm.Alloc("b", 4096)
	var lat sim.Time
	r.e.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		lat = p.Now() - t0
	})
	r.e.Run()
	// service (~2.2us) + media 15us + DMA ~0.2us; allow [15us, 20us].
	if lat < 15*sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("single-read latency = %v", lat)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	buf := r.hm.Alloc("b", 4096)
	var rl, wl sim.Time
	r.e.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 1, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		rl = p.Now() - t0
		t0 = p.Now()
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpWrite, CID: 2, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		wl = p.Now() - t0
	})
	r.e.Run()
	if wl <= rl {
		t.Fatalf("write latency %v not greater than read latency %v", wl, rl)
	}
}

// TestReadIOPSCap drives the device at high queue depth and checks the
// achieved 4 KiB random-read rate is close to the configured cap.
func TestReadIOPSCap(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, 256)
	buf := r.hm.Alloc("b", 4096)
	const total = 3000
	done := 0
	r.e.Go("host", func(p *sim.Proc) {
		submitted := 0
		for done < total {
			for submitted < total && !r.qp.SQ.Full() && r.qp.InFlight() < 128 {
				r.qp.SQ.Push(nvme.SQE{
					Opcode: nvme.OpRead, CID: uint16(submitted),
					PRP1: uint64(buf.Addr), SLBA: uint64(submitted * 8), NLB: 8,
				})
				submitted++
			}
			r.dev.Ring(r.qp)
			for {
				if _, ok := r.qp.CQ.Poll(); ok {
					done++
					continue
				}
				break
			}
			if done < total {
				if !r.qp.CQ.OnPost.Fired() {
					p.Wait(r.qp.CQ.OnPost)
				}
				r.qp.CQ.OnPost.Reset()
			}
		}
	})
	end := r.e.Run()
	iops := float64(total) / end.Seconds()
	if math.Abs(iops-cfg.ReadIOPS)/cfg.ReadIOPS > 0.05 {
		t.Fatalf("achieved %0.f IOPS, want ~%0.f", iops, cfg.ReadIOPS)
	}
}

// TestFlush exercises the flush path.
func TestFlush(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	var st nvme.Status = 0xf
	r.e.Go("host", func(p *sim.Proc) {
		c := r.submitWait(p, nvme.SQE{Opcode: nvme.OpFlush, CID: 1})
		st = c.Status
	})
	r.e.Run()
	if st != nvme.StatusSuccess {
		t.Fatalf("flush status = %v", st)
	}
	if r.dev.Stats().FlushCmds != 1 {
		t.Fatal("flush not counted")
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	buf := r.hm.Alloc("b", 4096)
	r.e.Go("host", func(p *sim.Proc) {
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
		r.submitWait(p, nvme.SQE{Opcode: nvme.OpRead, CID: 2, PRP1: uint64(buf.Addr), SLBA: 0, NLB: 8})
	})
	r.e.Run()
	st := r.dev.Stats()
	if st.ReadCmds != 1 || st.WriteCmds != 1 {
		t.Fatalf("cmds = %d/%d", st.ReadCmds, st.WriteCmds)
	}
	if st.ReadBytes != 4096 || st.WriteBytes != 4096 {
		t.Fatalf("bytes = %d/%d", st.ReadBytes, st.WriteBytes)
	}
	if st.ReadLatSum == 0 || st.WriteLatSum == 0 {
		t.Fatal("latency accounting missing")
	}
}

// TestStageSumsAddUpToLatency: four devices on one fabric, each with 48
// mixed reads and writes of 4–128 KiB queued at once, so commands wait for
// the frontend and for the shared link. Fault-free, every device's stage
// sums add up to its latency sums to the nanosecond, and the queueing
// stages are not empty.
func TestStageSumsAddUpToLatency(t *testing.T) {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	buf := hm.Alloc("data", 128<<10)
	rng := sim.NewRNG(3)
	var devs []*Device
	for i := 0; i < 4; i++ {
		cfg := DefaultConfig()
		cfg.Seed = uint64(i + 1)
		d := New(e, fmt.Sprintf("nvme%d", i), cfg, fab, space)
		qp := d.CreateQueuePair("qp0", hm.Alloc("sq", 64*nvme.SQESize).MakeEager(), hm.Alloc("cq", 64*nvme.CQESize).MakeEager(), 64)
		d.Start()
		for cid := uint16(0); cid < 48; cid++ {
			op := nvme.OpRead
			if rng.Int63n(3) == 0 {
				op = nvme.OpWrite
			}
			sqe := nvme.SQE{Opcode: op, CID: cid, NSID: 1, PRP1: uint64(buf.Addr),
				SLBA: uint64(rng.Int63n(1<<16)) * 8, NLB: uint32(8 << rng.Int63n(6))}
			if err := qp.SQ.Push(sqe); err != nil {
				t.Fatal(err)
			}
		}
		d.Ring(qp)
		devs = append(devs, d)
	}
	e.Run()
	sum := func(s Stages) sim.Time { return s.FrontWait + s.Service + s.Media + s.LinkWait + s.DMA }
	var frontWait, linkWait sim.Time
	for _, d := range devs {
		st := d.Stats()
		if st.ReadCmds+st.WriteCmds != 48 || st.ErrCmds != 0 {
			t.Fatalf("%s: %d reads, %d writes, %d errors; want 48 commands, no error", d.Name, st.ReadCmds, st.WriteCmds, st.ErrCmds)
		}
		if got := sum(st.ReadStages); got != st.ReadLatSum {
			t.Errorf("%s: read stages %+v add up to %v, ReadLatSum %v", d.Name, st.ReadStages, got, st.ReadLatSum)
		}
		if got := sum(st.WriteStages); got != st.WriteLatSum {
			t.Errorf("%s: write stages %+v add up to %v, WriteLatSum %v", d.Name, st.WriteStages, got, st.WriteLatSum)
		}
		frontWait += st.ReadStages.FrontWait + st.WriteStages.FrontWait
		linkWait += st.ReadStages.LinkWait + st.WriteStages.LinkWait
	}
	if frontWait == 0 || linkWait == 0 {
		t.Errorf("frontend wait %v, link wait %v: want both queueing stages exercised", frontWait, linkWait)
	}
}

// Store-level property tests.

func TestStoreRoundTripQuick(t *testing.T) {
	f := func(seed uint64, slba16 uint16, nlb8 uint8) bool {
		s := NewStore(1 << 20)
		slba := uint64(slba16)
		nlb := uint32(nlb8%32) + 1
		rng := sim.NewRNG(seed)
		src := make([]byte, int(nlb)*nvme.LBASize)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		if err := writeLBA(s, slba, nlb, src); err != nil {
			return false
		}
		dst := make([]byte, len(src))
		if err := readLBA(s, slba, nlb, dst); err != nil {
			return false
		}
		return bytes.Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDisjointWritesIndependent(t *testing.T) {
	s := NewStore(1 << 20)
	a := bytes.Repeat([]byte{0xaa}, nvme.LBASize)
	b := bytes.Repeat([]byte{0xbb}, nvme.LBASize)
	writeLBA(s, 10, 1, a)
	writeLBA(s, 11, 1, b)
	got := make([]byte, nvme.LBASize)
	readLBA(s, 10, 1, got)
	if !bytes.Equal(got, a) {
		t.Fatal("LBA 10 corrupted by adjacent write")
	}
	readLBA(s, 11, 1, got)
	if !bytes.Equal(got, b) {
		t.Fatal("LBA 11 wrong")
	}
}

func TestStoreCrossExtentWrite(t *testing.T) {
	s := NewStore(1 << 20)
	// a page is 8 LBAs: start mid-page and span two page boundaries
	nlb := uint32(16)
	slba := uint64(lbasPerPage - 4)
	src := bytes.Repeat([]byte{0x5a}, int(nlb)*nvme.LBASize)
	if err := writeLBA(s, slba, nlb, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := readLBA(s, slba, nlb, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("cross-page round trip failed")
	}
}

func TestStoreOutOfRange(t *testing.T) {
	s := NewStore(100)
	buf := make([]byte, nvme.LBASize)
	if err := readLBA(s, 100, 1, buf); err == nil {
		t.Fatal("read at capacity succeeded")
	}
	if err := writeLBA(s, 99, 2, make([]byte, 2*nvme.LBASize)); err == nil {
		t.Fatal("write crossing capacity succeeded")
	}
	if err := writeLBA(s, 99, 1, buf); err != nil {
		t.Fatalf("legal write failed: %v", err)
	}
}

func TestStoreShortBuffer(t *testing.T) {
	s := NewStore(100)
	if err := readLBA(s, 0, 2, make([]byte, nvme.LBASize)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := writeLBA(s, 0, 2, make([]byte, nvme.LBASize)); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

// TestRingAtServesAsOfTheInstant: an entry rung ahead of the clock is served
// as of its instant — its latency counts from there and its media phase
// starts no earlier — and an error found at fetch posts at the instant, not
// at the fetch. Both are rung before the controller's first run, so the
// instants also survive a doorbell that finds the controller busy.
func TestRingAtServesAsOfTheInstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencyJitter = 0
	r := newRig(t, cfg, 64)
	if n := r.dev.QueuePairs(); n != 1 {
		t.Fatalf("QueuePairs = %d, want 1", n)
	}
	buf := r.hm.Alloc("r", 4096)
	const readAt, badAt = 5 * sim.Microsecond, 7 * sim.Microsecond
	for _, c := range []struct {
		sqe nvme.SQE
		at  sim.Time
	}{
		{nvme.SQE{Opcode: nvme.OpRead, CID: 0, NSID: 1, PRP1: uint64(buf.Addr), NLB: 8}, readAt},
		{nvme.SQE{Opcode: nvme.Opcode(0x7f), CID: 1, NSID: 1}, badAt},
	} {
		if err := r.qp.SQ.Push(c.sqe); err != nil {
			t.Fatal(err)
		}
		r.dev.RingAt(r.qp, c.sqe.CID, c.at)
	}
	posted := map[uint16]sim.Time{}
	r.e.Go("host", func(p *sim.Proc) {
		for len(posted) < 2 {
			if c, ok := r.qp.CQ.Poll(); ok {
				posted[c.CID] = p.Now()
				continue
			}
			if !r.qp.CQ.OnPost.Fired() {
				p.Wait(r.qp.CQ.OnPost)
			}
			r.qp.CQ.OnPost.Reset()
		}
	})
	r.e.Run()
	if got := r.dev.SubmitTime(r.qp, 0); got != readAt {
		t.Errorf("read arrived at %v, want %v", got, readAt)
	}
	st := r.dev.Stats()
	if lat := posted[0] - readAt; st.ReadLatSum != lat || lat <= calib.SSDReadLatency() {
		t.Errorf("read posted at %v: latency sum %v, want %v and above the %v media latency", posted[0], st.ReadLatSum, lat, calib.SSDReadLatency())
	}
	if posted[1] != badAt || st.ErrCmds != 1 {
		t.Errorf("bad opcode posted at %v with %d error commands, want %v and 1", posted[1], st.ErrCmds, badAt)
	}
}
