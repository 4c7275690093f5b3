package oskernel

import (
	"bytes"
	"fmt"
	"testing"

	"camsim/internal/calib"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e    *sim.Engine
	hm   *hostmem.Memory
	devs []*ssd.Device
}

func newRig(t testing.TB, nDevs int) *rig {
	t.Helper()
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		cfg := ssd.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		d := ssd.New(e, fmt.Sprintf("nvme%d", i), cfg, fab, space)
		devs = append(devs, d)
	}
	return &rig{e: e, hm: hm, devs: devs}
}

func (r *rig) start() {
	for _, d := range r.devs {
		d.Start()
	}
}

// readAt and writeAt are pread/pwrite of caller-owned bytes: the slice is
// wrapped into a payload view for the call.
func readAt(s *Stack, p *sim.Proc, off int64, data []byte) nvme.Status {
	pay := mem.WrapBytes(data)
	defer pay.Release()
	return s.ReadAtP(p, off, pay, 0, int64(len(data)))
}

func writeAt(s *Stack, p *sim.Proc, off int64, data []byte) nvme.Status {
	pay := mem.WrapBytes(data)
	defer pay.Release()
	return s.WriteAtP(p, off, pay, 0, int64(len(data)))
}

func TestSyncReadAfterWrite(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	src := make([]byte, 8192)
	for i := range src {
		src[i] = byte(i % 251)
	}
	dst := make([]byte, 8192)
	r.e.Go("app", func(p *sim.Proc) {
		if st := writeAt(s, p, 4096, src); st != nvme.StatusSuccess {
			t.Errorf("write status %v", st)
		}
		if st := readAt(s, p, 4096, dst); st != nvme.StatusSuccess {
			t.Errorf("read status %v", st)
		}
	})
	r.e.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("POSIX read-after-write mismatch")
	}
}

func TestRAID0StripingRoundTrip(t *testing.T) {
	r := newRig(t, 4)
	cfg := DefaultConfig(Libaio)
	s := NewStack(r.e, Libaio, cfg, r.hm, r.devs)
	r.start()
	// Span several stripes so data crosses all devices.
	n := int(cfg.StripeBytes) * 6
	src := make([]byte, n)
	rng := sim.NewRNG(99)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	dst := make([]byte, n)
	r.e.Go("app", func(p *sim.Proc) {
		writeAt(s, p, 0, src)
		readAt(s, p, 0, dst)
	})
	r.e.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("RAID0 round trip mismatch")
	}
	// All four devices must have seen writes.
	for i, d := range r.devs {
		if d.Stats().WriteCmds == 0 {
			t.Errorf("device %d received no writes — striping broken", i)
		}
	}
}

func TestLocateStriping(t *testing.T) {
	r := newRig(t, 3)
	cfg := DefaultConfig(POSIX)
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	c := cfg.StripeBytes
	cases := []struct {
		off     int64
		wantDev int
		wantLBA uint64
	}{
		{0, 0, 0},
		{c, 1, 0},
		{2 * c, 2, 0},
		{3 * c, 0, uint64(c) / nvme.LBASize},
		{3*c + 512, 0, uint64(c)/nvme.LBASize + 1},
	}
	for _, tc := range cases {
		dev, lba := s.locate(tc.off)
		if dev != tc.wantDev || lba != tc.wantLBA {
			t.Errorf("locate(%d) = (%d,%d), want (%d,%d)", tc.off, dev, lba, tc.wantDev, tc.wantLBA)
		}
	}
}

// TestStripeCrossingRangeSplits reads back a 1 KiB range that straddles the
// first stripe boundary: it goes down as two 512 B commands, one on each
// device.
func TestStripeCrossingRangeSplits(t *testing.T) {
	r := newRig(t, 2)
	cfg := DefaultConfig(POSIX)
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	r.start()
	src := bytes.Repeat([]byte{1, 2, 3, 4}, 256)
	dst := make([]byte, len(src))
	r.e.Go("app", func(p *sim.Proc) {
		if st := writeAt(s, p, cfg.StripeBytes-512, src); st != nvme.StatusSuccess {
			t.Errorf("write status %v", st)
		}
		if st := readAt(s, p, cfg.StripeBytes-512, dst); st != nvme.StatusSuccess {
			t.Errorf("read status %v", st)
		}
	})
	r.e.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("stripe-crossing round trip mismatch")
	}
	for i, d := range r.devs {
		if st := d.Stats(); st.WriteCmds != 1 || st.ReadCmds != 1 {
			t.Errorf("device %d: %d writes and %d reads, want one of each", i, st.WriteCmds, st.ReadCmds)
		}
	}
}

// TestUnalignedRangePanics: Start rejects a range the block layer could not
// split into whole sectors.
func TestUnalignedRangePanics(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	for _, c := range []struct{ off, n int64 }{{100, 512}, {0, 100}, {0, 0}} {
		panicked := false
		r.e.Go("app", func(p *sim.Proc) {
			defer func() { panicked = recover() != nil }()
			s.ReadAtP(p, c.off, mem.NewPayload(1024, false), 0, c.n)
		})
		r.e.Run()
		if !panicked {
			t.Errorf("range off=%d n=%d did not panic", c.off, c.n)
		}
	}
}

// measureIOPS drives a stack with many worker threads at 4 KiB random
// access and returns achieved IOPS.
func measureIOPS(t *testing.T, kind StackKind, op nvme.Opcode, nDevs int) float64 {
	t.Helper()
	r := newRig(t, nDevs)
	s := NewStack(r.e, kind, DefaultConfig(kind), r.hm, r.devs)
	r.start()
	const workers = 32
	const perWorker = 40
	total := 0
	rng := sim.NewRNG(7)
	span := int64(nDevs) * (1 << 30)
	for w := 0; w < workers; w++ {
		seed := rng.Uint64()
		r.e.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			lrng := sim.NewRNG(seed)
			buf := make([]byte, 4096)
			for i := 0; i < perWorker; i++ {
				off := (lrng.Int63n(span / 4096)) * 4096
				if op == nvme.OpRead {
					readAt(s, p, off, buf)
				} else {
					writeAt(s, p, off, buf)
				}
				total++
			}
		})
	}
	end := r.e.Run()
	return float64(total) / end.Seconds()
}

func TestStackOrderingPOSIXSlowest(t *testing.T) {
	posix := measureIOPS(t, POSIX, nvme.OpRead, 1)
	aio := measureIOPS(t, Libaio, nvme.OpRead, 1)
	uringInt := measureIOPS(t, IOUringInt, nvme.OpRead, 1)
	uringPoll := measureIOPS(t, IOUringPoll, nvme.OpRead, 1)
	if !(posix < aio && aio < uringInt && uringInt < uringPoll) {
		t.Fatalf("stack ordering wrong: posix=%.0f aio=%.0f int=%.0f poll=%.0f",
			posix, aio, uringInt, uringPoll)
	}
	// Everything must sit below the device's 450K line (Fig 2a).
	if uringPoll >= 450_000 {
		t.Fatalf("io_uring poll %.0f IOPS reached the device line", uringPoll)
	}
	if posix < 100_000 || posix > 300_000 {
		t.Fatalf("POSIX read IOPS = %.0f, out of plausible band", posix)
	}
}

func TestWriteSlowerThanReadAllStacks(t *testing.T) {
	for _, k := range Kinds() {
		rd := measureIOPS(t, k, nvme.OpRead, 1)
		wr := measureIOPS(t, k, nvme.OpWrite, 1)
		if wr >= rd {
			t.Errorf("%v: write %.0f IOPS >= read %.0f IOPS", k, wr, rd)
		}
	}
}

func TestKernelPathDoesNotScaleWithDevices(t *testing.T) {
	one := measureIOPS(t, POSIX, nvme.OpRead, 1)
	many := measureIOPS(t, POSIX, nvme.OpRead, 4)
	// The serialized kernel path means RAID0 adds little (allow 25%).
	if many > one*1.25 {
		t.Fatalf("POSIX scaled with devices: 1 dev %.0f, 4 devs %.0f", one, many)
	}
}

func TestLayerBreakdownFSPlusIOMapOver34Pct(t *testing.T) {
	for _, k := range Kinds() {
		r := newRig(t, 1)
		s := NewStack(r.e, k, DefaultConfig(k), r.hm, r.devs)
		r.start()
		r.e.Go("app", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				readAt(s, p, int64(i)*4096, buf)
			}
		})
		r.e.Run()
		bd := s.LayerBreakdown()
		if got := bd["filesystem"] + bd["iomap"]; got < 0.34 {
			t.Errorf("%v: fs+iomap = %.2f, want > 0.34 (paper Fig 3)", k, got)
		}
	}
}

func TestCPUCountersAccumulate(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, Libaio, DefaultConfig(Libaio), r.hm, r.devs)
	r.start()
	r.e.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 10; i++ {
			readAt(s, p, int64(i)*4096, buf)
		}
	})
	r.e.Run()
	if s.Stat.Requests != 10 {
		t.Fatalf("requests = %d", s.Stat.Requests)
	}
	if s.Stat.PerRequestInstructions() < 1000 {
		t.Fatalf("per-request instructions = %.0f, implausibly low", s.Stat.PerRequestInstructions())
	}
	if s.Stat.PerRequestCycles() <= s.Stat.PerRequestInstructions() {
		t.Fatal("kernel stack should have cycles > instructions (IPC < 1)")
	}
}

func TestDRAMTrafficIsTwicePayload(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	const n = 64 * 4096
	r.e.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 64; i++ {
			readAt(s, p, int64(i)*4096, buf)
		}
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 2*n {
		t.Fatalf("DRAM traffic = %d, want %d (2x payload)", got, 2*n)
	}
}

func TestStackKindString(t *testing.T) {
	if POSIX.String() != "POSIX" || IOUringPoll.String() != "io_uring poll" {
		t.Fatal("StackKind.String broken")
	}
}

// TestSyncPathAllocatesNothing pins the synchronous kernel path at zero
// allocations per call, single-stripe and two-stripe, once the range pool,
// the signals' waiter arrays and the device-side pools have reached their
// working sizes.
func TestSyncPathAllocatesNothing(t *testing.T) {
	for _, k := range []StackKind{POSIX, IOUringPoll} {
		r := newRig(t, 2)
		s := NewStack(r.e, k, DefaultConfig(k), r.hm, r.devs)
		r.start()
		r.e.Go("app", func(p *sim.Proc) {
			buf := mem.NewPayload(4096, mem.DefaultEager())
			defer buf.Release()
			read := func() { s.ReadAtP(p, 8192, buf, 0, 4096) }
			write := func() { s.WriteAtP(p, 8192, buf, 0, 4096) }
			// Two stripes: the last 2 KiB of the first and the first 2 KiB
			// of the second.
			crossing := func() { s.ReadAtP(p, calib.RAID0Stripe()-2048, buf, 0, 4096) }
			for i := 0; i < 64; i++ {
				write()
				read()
				crossing()
			}
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("%v: steady-state ReadAtP allocates %.2f times, want 0", k, n)
			}
			if n := testing.AllocsPerRun(100, write); n != 0 {
				t.Errorf("%v: steady-state WriteAtP allocates %.2f times, want 0", k, n)
			}
			if n := testing.AllocsPerRun(100, crossing); n != 0 {
				t.Errorf("%v: steady-state two-stripe ReadAtP allocates %.2f times, want 0", k, n)
			}
		})
		r.e.Run()
		r.e.Shutdown()
	}
}

// TestSyncIOSpillsPastFourStripes reads seven stripes in one call: the
// bytes still round-trip, and a failure in the middle of the span is what
// the call reports.
func TestSyncIOSpillsPastFourStripes(t *testing.T) {
	r := newRig(t, 3)
	cfg := DefaultConfig(IOUringInt)
	s := NewStack(r.e, IOUringInt, cfg, r.hm, r.devs)
	r.start()
	n := int(cfg.StripeBytes)*6 + 4096 // seven requests: the first is a partial stripe
	src := make([]byte, n)
	rng := sim.NewRNG(5)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	dst := make([]byte, n)
	// The array ends where the smallest member does; a span starting one
	// stripe row short of that runs off every device from its fourth stripe
	// on.
	devBytes := int64(r.devs[0].Config().CapacityBytes)
	past := (devBytes/cfg.StripeBytes - 1) * cfg.StripeBytes * int64(len(r.devs))
	r.e.Go("app", func(p *sim.Proc) {
		if st := writeAt(s, p, 4096, src); st != nvme.StatusSuccess {
			t.Errorf("write status %v", st)
		}
		if st := readAt(s, p, 4096, dst); st != nvme.StatusSuccess {
			t.Errorf("read status %v", st)
		}
		if st := readAt(s, p, past, make([]byte, n)); st != nvme.StatusLBAOutOfRange {
			t.Errorf("read across the end of the array: status %v, want %v", st, nvme.StatusLBAOutOfRange)
		}
	})
	r.e.Run()
	r.e.Shutdown()
	if !bytes.Equal(src, dst) {
		t.Fatal("seven-stripe round trip mismatch")
	}
}

// TestPooledRangeDoesNotCarryStatus fails one read and then reuses its
// pooled Range for a good one.
func TestPooledRangeDoesNotCarryStatus(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	devBytes := int64(r.devs[0].Config().CapacityBytes)
	r.e.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		if st := readAt(s, p, devBytes, buf); st != nvme.StatusLBAOutOfRange {
			t.Errorf("read past the device: status %v, want %v", st, nvme.StatusLBAOutOfRange)
		}
		// The free list is LIFO: its top is the range that just failed.
		failed := s.freeRange.Get()
		if failed.Status != nvme.StatusLBAOutOfRange {
			t.Fatalf("top of the free list has status %v, want the failed range", failed.Status)
		}
		s.freeRange.Put(failed)
		if st := readAt(s, p, 0, buf); st != nvme.StatusSuccess {
			t.Errorf("read after a failed one: status %v", st)
		}
		if s.freeRange.Get() != failed {
			t.Error("second read did not reuse the pooled range")
		}
	})
	r.e.Run()
	r.e.Shutdown()
}

// BenchmarkOSKernelReadAtP times one synchronous 4 KiB payload read through
// the POSIX stack, 32 workers over 4 SSDs: host nanoseconds per request,
// with every layer below the syscall included.
func BenchmarkOSKernelReadAtP(b *testing.B) {
	r := newRig(b, 4)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	defer r.e.Shutdown()
	const workers = 32
	per := 0
	rng := sim.NewRNG(1) // shared: one worker runs at a time
	worker := func(p *sim.Proc) {
		buf := mem.NewPayload(4096, mem.DefaultEager())
		defer buf.Release()
		for i := 0; i < per; i++ {
			s.ReadAtP(p, rng.Int63n(1<<20)*4096, buf, 0, 4096)
		}
	}
	drive := func(n int) {
		per = (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			r.e.Go("w", worker)
		}
		r.e.Run()
	}
	drive(64 * workers) // grow the pools
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
}

// TestMaxQueueDepth: 65 536 entries is a legal NVMe queue (16-bit CIDs,
// zero-based MQES). One 16 KiB pread over 4 KiB stripes puts four reads in
// flight on the one device; all complete.
func TestMaxQueueDepth(t *testing.T) {
	r := newRig(t, 1)
	cfg := DefaultConfig(POSIX)
	cfg.QueueDepth = nvme.MaxQueueDepth
	cfg.StripeBytes = 4096
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	r.start()
	st := nvme.Status(255)
	r.e.Go("app", func(p *sim.Proc) {
		st = readAt(s, p, 0, make([]byte, 4*4096))
	})
	r.e.Run()
	if st != nvme.StatusSuccess {
		t.Fatalf("pread at depth %d: status %v", cfg.QueueDepth, st)
	}
}
