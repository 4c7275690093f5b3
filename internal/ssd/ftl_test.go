package ssd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// tinyFTL: 16 blocks of 4 pages (64 pages), watermark 2.
func tinyFTL() *FTL {
	return NewFTL(FTLConfig{
		PageBytes:     4096,
		PagesPerBlock: 4,
		Blocks:        16,
		GCWatermark:   2,
	})
}

func TestFTLFirstWriteMapsPage(t *testing.T) {
	f := tinyFTL()
	if p := f.HostWrite(0, 4096); p != 1 {
		t.Fatalf("programs = %d, want 1", p)
	}
	if _, ok := f.Lookup(0); !ok {
		t.Fatal("lpn 0 unmapped after write")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLOverwriteInvalidatesOldPage(t *testing.T) {
	f := tinyFTL()
	f.HostWrite(0, 4096)
	p1, _ := f.Lookup(0)
	f.HostWrite(0, 4096)
	p2, _ := f.Lookup(0)
	if p1 == p2 {
		t.Fatal("overwrite did not relocate the page (no log-structuring)")
	}
	st := f.Stats()
	if st.MappedPages != 1 {
		t.Fatalf("mapped pages = %d, want 1", st.MappedPages)
	}
	if st.HostPages != 2 || st.NANDPages != 2 {
		t.Fatalf("host/nand = %d/%d", st.HostPages, st.NANDPages)
	}
}

func TestFTLSubPageWriteCountsPartial(t *testing.T) {
	f := tinyFTL()
	f.HostWrite(512, 512) // inside page 0
	if f.Stats().PartialWrites != 1 {
		t.Fatalf("partial writes = %d", f.Stats().PartialWrites)
	}
	if _, ok := f.Lookup(0); !ok {
		t.Fatal("partial write did not map its page")
	}
}

func TestFTLMultiPageWrite(t *testing.T) {
	f := tinyFTL()
	if p := f.HostWrite(0, 3*4096); p != 3 {
		t.Fatalf("programs = %d, want 3", p)
	}
	for lpn := int64(0); lpn < 3; lpn++ {
		if _, ok := f.Lookup(lpn); !ok {
			t.Fatalf("lpn %d unmapped", lpn)
		}
	}
}

func TestFTLGCReclaimsSpace(t *testing.T) {
	f := tinyFTL()
	// Hammer a small logical range far beyond physical capacity; without
	// GC this would exhaust the 64 physical pages after 64 programs.
	for i := 0; i < 500; i++ {
		f.HostWrite(int64(i%8)*4096, 4096)
	}
	st := f.Stats()
	if st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("no GC activity: %+v", st)
	}
	if st.WriteAmplification() < 1.0 {
		t.Fatalf("WA = %.2f < 1", st.WriteAmplification())
	}
	if st.MappedPages != 8 {
		t.Fatalf("mapped = %d, want 8", st.MappedPages)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLWriteAmplificationGrowsWithUtilization(t *testing.T) {
	// Overwriting a large fraction of the namespace leaves GC fewer
	// invalid pages per victim, so WA rises versus a small hot set.
	run := func(hotPages int64) float64 {
		f := NewFTL(FTLConfig{PageBytes: 4096, PagesPerBlock: 8, Blocks: 40, GCWatermark: 2})
		rng := sim.NewRNG(1)
		for i := 0; i < 4000; i++ {
			f.HostWrite(rng.Int63n(hotPages)*4096, 4096)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.Stats().WriteAmplification()
	}
	small := run(16)  // 5% of physical space
	large := run(280) // ~88% of physical space
	if large <= small {
		t.Fatalf("WA did not grow with utilization: hot=%.3f full=%.3f", small, large)
	}
	if large < 1.2 {
		t.Fatalf("high-utilization WA = %.3f, expected visible amplification", large)
	}
}

func TestFTLExhaustionPanics(t *testing.T) {
	// Fill the whole logical space so every page stays valid; with no
	// invalid pages to reclaim GC cannot help and the FTL must refuse.
	f := NewFTL(FTLConfig{PageBytes: 4096, PagesPerBlock: 4, Blocks: 4, GCWatermark: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exhaustion")
		}
	}()
	for lpn := int64(0); lpn < 20; lpn++ {
		f.HostWrite(lpn*4096, 4096)
	}
}

// Property: after any random write sequence inside a bounded logical
// range, invariants hold and mapped pages equal the distinct pages
// touched.
func TestFTLInvariantsQuick(t *testing.T) {
	fn := func(seed uint64, ops uint16) bool {
		f := NewFTL(FTLConfig{PageBytes: 4096, PagesPerBlock: 4, Blocks: 24, GCWatermark: 2})
		rng := sim.NewRNG(seed)
		touched := map[int64]bool{}
		for i := 0; i < int(ops%600); i++ {
			lpn := rng.Int63n(20)
			f.HostWrite(lpn*4096, 4096)
			touched[lpn] = true
		}
		if err := f.CheckInvariants(); err != nil {
			return false
		}
		return int(f.Stats().MappedPages) == len(touched)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceWritesDriveFTL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityBytes = 1 << 22 // small namespace
	r := newRig(t, cfg, 64)
	buf := r.hm.Alloc("b", 8192)
	r.e.Go("host", func(p *sim.Proc) {
		r.submitWait(p, nvmeWrite(1, uint64(buf.Addr), 0, 16))
		r.submitWait(p, nvmeWrite(2, uint64(buf.Addr), 0, 16)) // overwrite
	})
	r.e.Run()
	st := r.dev.FTL().Stats()
	if st.HostPages != 4 { // 2 writes × 8 KiB = 2 pages each
		t.Fatalf("FTL host pages = %d, want 4", st.HostPages)
	}
	if st.MappedPages != 2 {
		t.Fatalf("mapped = %d, want 2", st.MappedPages)
	}
	if err := r.dev.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChargeGCSlowsSustainedRandomWrites(t *testing.T) {
	measure := func(chargeGC bool) sim.Time {
		cfg := DefaultConfig()
		cfg.CapacityBytes = 16 << 20 // 4096 pages logical
		cfg.OverProvision = 0.08
		cfg.ChargeGC = chargeGC
		cfg.LatencyJitter = 0
		r := newRig(t, cfg, 256)
		buf := r.hm.Alloc("b", 4096)
		rng := sim.NewRNG(9)
		r.e.Go("host", func(p *sim.Proc) {
			for i := 0; i < 6000; i++ {
				lba := uint64(rng.Int63n(4096)) * 8
				r.submitWait(p, nvmeWrite(uint16(i), uint64(buf.Addr), lba, 8))
			}
		})
		return r.e.Run()
	}
	plain := measure(false)
	charged := measure(true)
	if charged <= plain {
		t.Fatalf("ChargeGC did not slow sustained random writes: %v vs %v", charged, plain)
	}
}

// nvmeWrite builds a write SQE for the rig helpers.
func nvmeWrite(cid uint16, prp uint64, slba uint64, nlb uint32) nvme.SQE {
	return nvme.SQE{Opcode: nvme.OpWrite, CID: cid, PRP1: prp, SLBA: slba, NLB: nlb}
}

// TestFTLFlatTableSurvivesGCCycle is the regression gate for the flat
// mapping/rmap rewrite: after several complete GC cycles every logical
// page must still round-trip through both directions of the translation
// (forward segments → rmap slice → back), the mapped-page counter must
// match the working set, and CheckInvariants must hold.
func TestFTLFlatTableSurvivesGCCycle(t *testing.T) {
	f := tinyFTL()
	const workingSet = 40 // 62% of the 64 physical pages: victims stay mixed
	for lpn := int64(0); lpn < workingSet; lpn++ {
		f.HostWrite(lpn*4096, 4096)
	}
	// Random overwrites leave victim blocks with a mix of valid and
	// invalid pages, so collection must migrate (a strictly sequential
	// pattern invalidates whole blocks and GC erases them for free).
	rng := sim.NewRNG(7)
	for i := 0; f.Stats().GCRuns < 5; i++ {
		if i > 10000 {
			t.Fatal("GC never ran")
		}
		f.HostWrite(rng.Int63n(workingSet)*4096, 4096)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < workingSet; lpn++ {
		ppn, ok := f.Lookup(lpn)
		if !ok {
			t.Fatalf("lpn %d unmapped after GC", lpn)
		}
		if back := f.rmap[ppn]; back != lpn {
			t.Fatalf("rmap[%d] = %d, want %d (stale reverse entry after migration)", ppn, back, lpn)
		}
	}
	st := f.Stats()
	if st.MappedPages != workingSet {
		t.Fatalf("mapped pages = %d, want %d", st.MappedPages, workingSet)
	}
	if st.GCMigrations == 0 {
		t.Fatal("GC ran without migrating any valid page — victim selection broken")
	}
	if st.Erases < 5 {
		t.Fatalf("erases = %d, want >= 5", st.Erases)
	}
}

// TestFTLOverflowLPNs drives the sparse path: LPNs beyond the flat
// directory's limit must land in the overflow map, overwrite correctly,
// and coexist with flat entries under the shared invariant check.
func TestFTLOverflowLPNs(t *testing.T) {
	f := tinyFTL()
	huge := f.flatLimit + 5
	f.HostWrite(huge*4096, 4096)
	p1, ok := f.Lookup(huge)
	if !ok {
		t.Fatalf("lpn %d (overflow) unmapped after write", huge)
	}
	f.HostWrite(huge*4096, 4096) // overwrite relocates within overflow
	p2, ok := f.Lookup(huge)
	if !ok || p1 == p2 {
		t.Fatalf("overflow overwrite: ok=%v p1=%d p2=%d", ok, p1, p2)
	}
	f.HostWrite(0, 4096) // flat entry alongside
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.MappedPages != 2 {
		t.Fatalf("mapped pages = %d, want 2", st.MappedPages)
	}
}
