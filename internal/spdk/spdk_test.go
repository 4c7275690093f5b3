package spdk

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"camsim/internal/gpu"
	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e     *sim.Engine
	space *mem.Space
	hm    *hostmem.Memory
	fab   *pcie.Fabric
	devs  []*ssd.Device
	g     *gpu.GPU
}

func newRig(nDevs int) *rig { return newRigIOPS(nDevs, 0) }

// newRigIOPS optionally overrides the per-device read IOPS; the per-thread
// scaling tests use the PCIe-capped effective rate of the paper's 12-SSD
// platform (≈427 K) rather than the bare-device 700 K.
func newRigIOPS(nDevs int, readIOPS float64) *rig {
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	g := gpu.New(e, "gpu0", gpu.DefaultConfig(), space)
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		cfg := ssd.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		if readIOPS > 0 {
			cfg.ReadIOPS = readIOPS
		}
		devs = append(devs, ssd.New(e, fmt.Sprintf("nvme%d", i), cfg, fab, space))
	}
	return &rig{e: e, space: space, hm: hm, fab: fab, devs: devs, g: g}
}

// effIOPS is the per-SSD effective 4 KiB read rate on the paper's
// PCIe-limited platform.
const effIOPS = 427_000

func (r *rig) startAll(d *Driver) {
	for _, dev := range r.devs {
		dev.Start()
	}
	d.Start()
}

func TestHostReadAfterWrite(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	wb := r.hm.Alloc("w", 8192)
	rb := r.hm.Alloc("r", 8192)
	for i := range wb.Payload().Bytes() {
		wb.Payload().Bytes()[i] = byte(i * 3)
	}
	r.e.Go("app", func(p *sim.Proc) {
		w := &Request{Op: nvme.OpWrite, Dev: 0, SLBA: 64, NLB: 16, Addr: wb.Addr}
		d.Submit(w)
		p.Wait(&w.Done)
		if w.Status != nvme.StatusSuccess {
			t.Errorf("write status %v", w.Status)
		}
		rd := &Request{Op: nvme.OpRead, Dev: 0, SLBA: 64, NLB: 16, Addr: rb.Addr}
		d.Submit(rd)
		p.Wait(&rd.Done)
		if rd.Status != nvme.StatusSuccess {
			t.Errorf("read status %v", rd.Status)
		}
	})
	r.e.Run()
	if !bytes.Equal(wb.Payload().Bytes(), rb.Payload().Bytes()) {
		t.Fatal("SPDK host round trip mismatch")
	}
}

// driveRandom issues `total` random 4 KiB ops across all devices at high
// queue depth and returns achieved IOPS.
func driveRandom(t *testing.T, r *rig, d *Driver, op nvme.Opcode, total int) float64 {
	t.Helper()
	buf := r.hm.Alloc("io", 4096)
	done := 0
	inFlight := 0
	rng := sim.NewRNG(5)
	issued := 0
	r.e.Go("driver", func(p *sim.Proc) {
		for done < total {
			for issued < total && inFlight < 64*len(r.devs) {
				req := &Request{
					Op: op, Dev: issued % len(r.devs),
					SLBA: uint64(rng.Int63n(1<<20) * 8), NLB: 8,
					Addr: buf.Addr,
				}
				d.Submit(req)
				inFlight++
				issued++
				r.e.Go("waiter", func(w *sim.Proc) {
					w.Wait(&req.Done)
					done++
					inFlight--
				})
			}
			if done >= total {
				break
			}
			p.Sleep(20 * sim.Microsecond)
		}
	})
	end := r.e.Run()
	if done != total {
		t.Fatalf("completed %d of %d", done, total)
	}
	return float64(total) / end.Seconds()
}

func TestSingleSSDReadNearDeviceLine(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	iops := driveRandom(t, r, d, nvme.OpRead, 4000)
	want := ssd.DefaultConfig().ReadIOPS
	if math.Abs(iops-want)/want > 0.08 {
		t.Fatalf("SPDK 1-SSD read = %.0f IOPS, want ~%.0f (device line)", iops, want)
	}
}

func TestOneThreadTwoSSDsNoLoss(t *testing.T) {
	r := newRigIOPS(2, effIOPS)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	iops := driveRandom(t, r, d, nvme.OpRead, 6000)
	want := float64(2 * effIOPS)
	if iops < want*0.92 {
		t.Fatalf("1 thread / 2 SSDs = %.0f IOPS, want ~%.0f (no degradation)", iops, want)
	}
}

func TestOneThreadFourSSDsDegrades(t *testing.T) {
	r := newRigIOPS(4, effIOPS)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	iops := driveRandom(t, r, d, nvme.OpRead, 8000)
	full := float64(4 * effIOPS)
	frac := iops / full
	if frac > 0.85 || frac < 0.6 {
		t.Fatalf("1 thread / 4 SSDs achieved %.0f%% of full rate, want ~75%% (Fig 12)", frac*100)
	}
}

func TestPerThreadScalingRestoresFullRate(t *testing.T) {
	r := newRigIOPS(4, effIOPS)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 4)
	r.startAll(d)
	iops := driveRandom(t, r, d, nvme.OpRead, 8000)
	full := float64(4 * effIOPS)
	if iops < full*0.92 {
		t.Fatalf("4 threads / 4 SSDs = %.0f IOPS, want ~%.0f", iops, full)
	}
}

func TestHostReadChargesDRAMOnce(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	r.e.Go("app", func(p *sim.Proc) {
		req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: 0, NLB: 8, Addr: buf.Addr}
		d.Submit(req)
		p.Wait(&req.Done)
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 4096 {
		t.Fatalf("DRAM traffic = %d, want 4096 (one crossing)", got)
	}
}

func TestGPUDirectAddressChargesNoDRAM(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	gb := r.g.AllocPinned("g", 4096)
	r.e.Go("app", func(p *sim.Proc) {
		req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: 0, NLB: 8, Addr: gb.Addr}
		d.Submit(req)
		p.Wait(&req.Done)
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 0 {
		t.Fatalf("DRAM traffic = %d for GPU-direct read, want 0", got)
	}
}

func TestOversizeRequestPanics(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize request did not panic")
		}
	}()
	d.Submit(&Request{Op: nvme.OpRead, Dev: 0, NLB: 1024, Addr: 0})
}

func TestStatsCountRequests(t *testing.T) {
	r := newRig(1)
	d := New(r.e, DefaultConfig(), r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("b", 4096)
	r.e.Go("app", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			req := &Request{Op: nvme.OpRead, Dev: 0, SLBA: uint64(i * 8), NLB: 8, Addr: buf.Addr}
			d.Submit(req)
			p.Wait(&req.Done)
		}
	})
	r.e.Run()
	st := d.Stats()
	if st.Requests != 5 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.PerRequestInstructions() < 500 {
		t.Fatalf("per-request instructions %.0f implausibly low", st.PerRequestInstructions())
	}
}

// TestMaxQueueDepth: 65 536 entries is a legal NVMe queue (16-bit CIDs,
// zero-based MQES), and reads in flight on one complete.
func TestMaxQueueDepth(t *testing.T) {
	r := newRig(1)
	cfg := DefaultConfig()
	cfg.QueueDepth = nvme.MaxQueueDepth
	d := New(r.e, cfg, r.hm, r.space, r.devs, 1)
	r.startAll(d)
	buf := r.hm.Alloc("r", 4*4096)
	reqs := make([]Request, 4)
	r.e.Go("app", func(p *sim.Proc) {
		for i := range reqs {
			reqs[i] = Request{Op: nvme.OpRead, SLBA: uint64(8 * i), NLB: 8, Addr: buf.Addr + mem.Addr(4096*i)}
			d.Submit(&reqs[i])
		}
		for i := range reqs {
			p.Wait(&reqs[i].Done)
		}
	})
	r.e.Run()
	for i := range reqs {
		if !reqs[i].Done.Fired() || reqs[i].Status != nvme.StatusSuccess {
			t.Fatalf("read %d: done %v, status %v", i, reqs[i].Done.Fired(), reqs[i].Status)
		}
	}
}
