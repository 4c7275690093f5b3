package main

import (
	"runtime"
	"time"

	"camsim/internal/bam"
	"camsim/internal/hostmem"
	"camsim/internal/kvcache"
	"camsim/internal/mem"
	"camsim/internal/metrics"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/pcie"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/spdk"
	"camsim/internal/ssd"
	"camsim/internal/xfer"
)

// A layer drive calls one layer's exported functions from the top of the
// smallest stack that can run them and reports host nanoseconds and heap
// allocations per call. Drives do not depend on the workload or the seed:
// their inputs come from fixed streams, so two commits compare like for
// like.

// drive is one layer drive: build constructs the layer and returns the
// function that performs ops operations on it (callable repeatedly, so
// construction stays outside the measurement) and a cleanup.
type drive struct {
	metric string // per-layer metric the ns/op figure is reported under
	ops    int    // operations per call at scale 1
	build  func(ops int) (run, cleanup func())
}

type driveResult struct {
	ns     float64 // host ns per operation, fastest of the timed calls
	allocs float64 // heap allocations per operation
}

// runDrive warms the drive once (pools, rings and goroutines reach their
// high-water marks), then times it three times and keeps the fastest: host
// interference only ever adds time.
func runDrive(d drive, scale float64) driveResult {
	ops := int(float64(d.ops) * scale)
	if ops < 64 {
		ops = 64
	}
	f, cleanup := d.build(ops)
	defer cleanup()
	f()
	res := driveResult{ns: -1}
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f()
		ns := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		runtime.ReadMemStats(&m1)
		if res.ns < 0 || ns < res.ns {
			res.ns = ns
		}
		res.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	}
	return res
}

var drives = []drive{
	{"sim.now_ns_per_event", 400_000, func(n int) (func(), func()) { return eventDrive(n, 0, 0) }},
	{"sim.near_ns_per_event", 400_000, func(n int) (func(), func()) { return eventDrive(n, sim.Microsecond, 400*sim.Microsecond) }},
	{"sim.far_ns_per_event", 400_000, func(n int) (func(), func()) { return eventDrive(n, sim.Millisecond, 20*sim.Millisecond) }},
	{"sim.timer_ns_per_revive", 400_000, timerDrive},
	{"sim.proc_ns_per_switch", 100_000, procDrive},
	{"nvme.ns_per_roundtrip", 400_000, nvmeDrive},
	{"mem.ns_per_write4k", 100_000, func(n int) (func(), func()) { return memDrive(n, "write") }},
	{"mem.ns_per_copy4k", 100_000, func(n int) (func(), func()) { return memDrive(n, "copy") }},
	{"mem.ns_per_read4k", 100_000, func(n int) (func(), func()) { return memDrive(n, "read") }},
	{"mem.ns_per_resolve", 400_000, resolveDrive},
	{"ssd.ns_per_read_cmd", 100_000, func(n int) (func(), func()) { return ssdDrive(n, nvme.OpRead) }},
	{"ssd.ns_per_write_cmd", 50_000, func(n int) (func(), func()) { return ssdDrive(n, nvme.OpWrite) }},
	{"ssd.ftl_ns_per_page", 200_000, ftlDrive},
	{"pcie.ns_per_reserve", 400_000, pcieDrive},
	{"spdk.ns_per_req", 100_000, spdkDrive},
	{"bam.ns_per_io", 100_000, bamDrive},
	{"oskernel.ns_per_req", 50_000, oskernelDrive},
	{"xfer.ns_per_granule", 20_000, xferDrive},
	{"kvcache.tier_ns_per_op", 400_000, tierDrive},
	{"metrics.hist_ns_per_add", 400_000, histDrive},
}

// delayTable is a fixed stream of delays in [lo, hi].
func delayTable(lo, hi sim.Time) []sim.Time {
	rng := sim.NewRNG(42)
	t := make([]sim.Time, 1024)
	for i := range t {
		t[i] = lo
		if hi > lo {
			t[i] += sim.Time(rng.Int63n(int64(hi - lo + 1)))
		}
	}
	return t
}

// chain is a callback that reschedules itself until its budget is spent.
type chain struct {
	e      *sim.Engine
	delays []sim.Time
	i      int
	left   int
}

func (c *chain) Run() {
	if c.left--; c.left > 0 {
		c.i++
		c.e.ScheduleCallback(c.delays[c.i&1023], c)
	}
}

// eventDrive dispatches n events through 64 concurrent self-rescheduling
// callbacks whose delays fall in [lo, hi]: zero for the now-ring, inside
// the wheel horizon for the near lane, past it for the overflow heap.
func eventDrive(n int, lo, hi sim.Time) (func(), func()) {
	const chains = 64
	e := sim.New()
	delays := delayTable(lo, hi)
	cs := make([]*chain, chains)
	for i := range cs {
		cs[i] = &chain{e: e, delays: delays, i: i * 16}
	}
	return func() {
		for _, c := range cs {
			c.left = n / chains
			e.ScheduleCallback(c.delays[c.i&1023], c)
		}
		e.Run()
	}, nop
}

func nop() {}

// timerDrive cancels and revives one pending timer n times: the pattern of
// a command deadline armed and then beaten by its completion.
func timerDrive(n int) (func(), func()) {
	e := sim.New()
	fn := func() {}
	return func() {
		t := e.ScheduleTimer(sim.Second, fn)
		for i := 0; i < n; i++ {
			t.Cancel()
			t.Revive(fn)
		}
		t.Cancel()
		e.Run()
	}, nop
}

// procDrive puts one goroutine process to sleep n times; each sleep is one
// switch to the engine and one back.
func procDrive(n int) (func(), func()) {
	e := sim.New()
	sleeper := func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
	}
	return func() {
		e.Go("drive", sleeper)
		e.Run()
	}, e.Shutdown
}

func nvmeDrive(n int) (func(), func()) {
	const depth = 64
	e := sim.New()
	qp := nvme.NewQueuePair(e, "drive", make([]byte, depth*nvme.SQESize), make([]byte, depth*nvme.CQESize), depth)
	return func() {
		for i := 0; i < n; i++ {
			sqe := nvme.SQE{Opcode: nvme.OpRead, CID: uint16(i), NSID: 1, PRP1: 0x1000, SLBA: uint64(i) * 8, NLB: 8}
			if err := qp.SQ.Push(sqe); err != nil {
				panic(err)
			}
			got, err := qp.SQ.Pop()
			if err != nil {
				panic(err)
			}
			qp.CQ.Post(nvme.CQE{CID: got.CID, SQHead: uint16(qp.SQ.Head())})
			if c, ok := qp.CQ.Poll(); !ok || c.CID != sqe.CID {
				panic("nvme drive: completion lost")
			}
			qp.CQ.OnPost.Reset()
		}
	}, nop
}

// memDrive moves 4 KiB blocks through lazy payloads: WriteAt of non-zero
// bytes, PayloadCopy between payloads, and ReadAt of the copied content.
func memDrive(n int, op string) (func(), func()) {
	const blocks = 256
	src := mem.NewPayload(blocks*camBlockBytes, false)
	dst := mem.NewPayload(blocks*camBlockBytes, false)
	block := make([]byte, camBlockBytes)
	for i := range block {
		block[i] = byte(i) | 1
	}
	for i := int64(0); i < blocks; i++ {
		src.WriteAt(block, i*camBlockBytes)
	}
	mem.PayloadCopy(dst, 0, src, 0, blocks*camBlockBytes)
	do := map[string]func(off int64){
		"write": func(off int64) { src.WriteAt(block, off) },
		"copy":  func(off int64) { mem.PayloadCopy(dst, off, src, off, camBlockBytes) },
		"read":  func(off int64) { dst.ReadAt(block, off) },
	}[op]
	return func() {
			for i := 0; i < n; i++ {
				do(int64(i%blocks) * camBlockBytes)
			}
		}, func() {
			src.Release()
			dst.Release()
		}
}

func resolveDrive(n int) (func(), func()) {
	space := mem.NewSpace()
	const base, regions, size = 0x1000_0000, 32, 1 << 20
	for i := 0; i < regions; i++ {
		space.RegisterPayload("drive", mem.Addr(base+i*size), mem.NewPayload(size, false), mem.GPUHBM)
	}
	return func() {
		for i := 0; i < n; i++ {
			off := (i * 7919 * camBlockBytes) % (regions * size)
			if _, _, _, err := space.ResolvePayload(mem.Addr(base+off), camBlockBytes); err != nil {
				panic(err)
			}
		}
	}, nop
}

// ssdReaper feeds one queue pair to a fixed depth and reaps it from the
// completion signal, with no driver in between.
type ssdReaper struct {
	dev    *ssd.Device
	qp     *nvme.QueuePair
	op     nvme.Opcode
	addr   mem.Addr
	rng    *sim.RNG
	free   []uint16 // command identifiers not in flight
	n      int
	issued int
	done   int
}

func (r *ssdReaper) Run() {
	const spanBlocks = 4096
	r.qp.CQ.OnPost.Reset()
	for {
		c, ok := r.qp.CQ.Poll()
		if !ok {
			break
		}
		if c.Status != nvme.StatusSuccess {
			panic("ssd drive: command failed")
		}
		r.done++
		r.free = append(r.free, c.CID)
	}
	pushed := false
	for r.issued < r.n && len(r.free) > 0 {
		cid := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		sqe := nvme.SQE{Opcode: r.op, CID: cid, NSID: 1, PRP1: uint64(r.addr),
			SLBA: uint64(r.rng.Int63n(spanBlocks)) * 8, NLB: 8}
		if err := r.qp.SQ.Push(sqe); err != nil {
			panic(err)
		}
		r.issued++
		pushed = true
	}
	if pushed {
		r.dev.Ring(r.qp)
	}
	if r.done < r.n {
		r.qp.CQ.OnPost.WaitCallback(0, r)
	}
}

func ssdDrive(n int, op nvme.Opcode) (func(), func()) {
	const depth = 64
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	dev := ssd.New(e, "nvme0", ssd.DefaultConfig(), fab, space)
	sq := hm.Alloc("sq", depth*nvme.SQESize)
	cq := hm.Alloc("cq", depth*nvme.CQESize)
	qp := dev.CreateQueuePair("drive", sq.MakeEager(), cq.MakeEager(), depth)
	dev.Start()
	buf := hm.Alloc("data", camBlockBytes)
	data := buf.MakeEager()
	for i := range data {
		data[i] = byte(i) | 1
	}
	r := &ssdReaper{dev: dev, qp: qp, op: op, addr: buf.Addr, rng: sim.NewRNG(7)}
	for cid := uint16(0); cid < depth/2; cid++ {
		r.free = append(r.free, cid)
	}
	return func() {
		r.n, r.issued, r.done = n, 0, 0
		e.ScheduleCallback(0, r)
		e.Run()
		if r.done != n {
			panic("ssd drive: commands lost")
		}
	}, e.Shutdown
}

func ftlDrive(n int) (func(), func()) {
	const logical = 256 << 20
	f := ssd.NewFTL(ssd.DefaultFTLConfig(logical, 0.07))
	rng := sim.NewRNG(9)
	return func() {
		for i := 0; i < n; i++ {
			f.HostWrite(rng.Int63n(logical/camBlockBytes)*camBlockBytes, camBlockBytes)
		}
	}, nop
}

func pcieDrive(n int) (func(), func()) {
	fab := pcie.New(sim.New(), pcie.DefaultConfig())
	return func() {
		for i := 0; i < n; i++ {
			fab.ReserveDMA(camBlockBytes)
		}
	}, nop
}

// spdkSink keeps a raw SPDK driver at queue depth 64 per SSD with pooled
// requests that read into host memory.
type spdkSink struct {
	d      *spdk.Driver
	addr   mem.Addr
	rng    *sim.RNG
	n      int
	issued int
	done   int
}

func (s *spdkSink) submit() {
	r := s.d.GetRequest()
	r.Op, r.Dev, r.NLB, r.Addr, r.Sink = nvme.OpRead, s.issued%camSSDs, 8, s.addr, s
	r.SLBA = uint64(s.rng.Int63n(1<<21)) * 8
	s.issued++
	s.d.Submit(r)
}

func (s *spdkSink) RequestDone(r *spdk.Request) {
	if r.Status != nvme.StatusSuccess {
		panic("spdk drive: request failed")
	}
	s.done++
	if s.issued < s.n {
		s.submit()
	}
}

func spdkDrive(n int) (func(), func()) {
	env := platform.New(platform.Options{SSDs: camSSDs})
	d := spdk.New(env.E, spdk.DefaultConfig(), env.HM, env.Space, env.Devs, camSSDs/2)
	d.Start()
	buf := env.HM.Alloc("raw", camBlockBytes)
	s := &spdkSink{d: d, addr: buf.Addr, rng: sim.NewRNG(13)}
	return func() {
		s.n, s.issued, s.done = n, 0, 0
		for s.issued < n && s.issued < 64*camSSDs {
			s.submit()
		}
		env.Run()
		if s.done != n {
			panic("spdk drive: requests lost")
		}
	}, env.E.Shutdown
}

func bamDrive(n int) (func(), func()) {
	env := platform.New(platform.Options{SSDs: camSSDs})
	arr := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs).NewArray(camBlockBytes)
	buf := env.GPU.Alloc("drive", camBatchBlocks*camBlockBytes)
	rng := sim.NewRNG(17)
	blocks := make([]uint64, camBatchBlocks)
	gather := func(p *sim.Proc) {
		for done := 0; done < n; done += camBatchBlocks {
			for i := range blocks {
				blocks[i] = uint64(rng.Int63n(camSpanBlocks))
			}
			if arr.Gather(p, blocks, buf, 0) != 0 {
				panic("bam drive: blocks failed")
			}
		}
	}
	return func() {
		env.E.Go("drive", gather)
		env.Run()
	}, env.E.Shutdown
}

func oskernelDrive(n int) (func(), func()) {
	env := platform.New(platform.Options{SSDs: 1})
	st := oskernel.NewStack(env.E, oskernel.POSIX, oskernel.DefaultConfig(oskernel.POSIX), env.HM, env.Devs)
	env.StartDevices()
	rng := sim.NewRNG(19)
	per := n / stackWorkers
	worker := func(p *sim.Proc) {
		lr := sim.NewRNG(rng.Uint64())
		buf := mem.NewPayload(camBlockBytes, false)
		defer buf.Release()
		for i := 0; i < per; i++ {
			if st.ReadAtP(p, lr.Int63n(1<<20)*camBlockBytes, buf, 0, camBlockBytes) != nvme.StatusSuccess {
				panic("oskernel drive: request failed")
			}
		}
	}
	return func() {
		for w := 0; w < stackWorkers; w++ {
			env.E.Go("drive", worker)
		}
		env.Run()
	}, env.E.Shutdown
}

func xferDrive(n int) (func(), func()) {
	const granule = 128 << 10
	env := platform.New(platform.Options{SSDs: camSSDs})
	b := xfer.NewCAM(env, granule, nil)
	buf := b.Alloc("drive", granule)
	reader := func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			xfer.Read(p, b, int64(i)*granule, granule, buf, 0)
		}
	}
	return func() {
		env.E.Go("drive", reader)
		env.Run()
	}, env.E.Shutdown
}

// tierDrive cycles a 2048-frame tier at steady state: seven touches of
// resident keys, then one eviction (PickVictims, Remove) and one Insert.
func tierDrive(n int) (func(), func()) {
	const frames = 2048
	t := kvcache.NewTier(kvcache.TierConfig{Frames: frames, BoostPerHit: 8, BoostCap: 64})
	key := func(k int) kvcache.Key { return kvcache.MakeKey(k%12, k%8, k) }
	next := 0
	insert := func() {
		f, ok := t.TakeFree()
		if !ok {
			panic("tier drive: no free frame")
		}
		t.Insert(key(next), f, false, false)
		next++
	}
	for t.FreeFrames() > 0 {
		insert()
	}
	rng := sim.NewRNG(23)
	var victims []kvcache.Key
	return func() {
		for i := 0; i < n; i++ {
			if i%8 != 0 {
				// Most of the last `frames` keys inserted are still
				// resident; redraw until one is.
				k := key(next - 1 - int(rng.Int63n(frames)))
				for !t.Holds(k) {
					k = key(next - 1 - int(rng.Int63n(frames)))
				}
				t.Touch(k)
				continue
			}
			victims = t.PickVictims(1, victims[:0])
			for _, v := range victims {
				t.Remove(v)
			}
			insert()
		}
	}, nop
}

func histDrive(n int) (func(), func()) {
	return func() {
		h := metrics.NewHistogram("drive")
		for i := 0; i < n; i++ {
			h.Add(float64(i & 1023))
		}
		if h.Percentile(99) < 0 {
			panic("histogram drive: negative percentile")
		}
	}, nop
}
