package ssd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camsim/internal/fault"
	"camsim/internal/sim"
)

// smallFTL builds an FTL small enough that random write streams drive many
// GC cycles.
func smallFTL() *FTL {
	return NewFTL(FTLConfig{PageBytes: 4096, PagesPerBlock: 8, Blocks: 24, GCWatermark: 3})
}

// TestFTLInvariantsUnderProgramFailuresQuick is the chaos property: random
// interleavings of writes, overwrites and the GC cycles they trigger — with
// NAND program failures injected at a deterministic per-seed rate — must
// preserve the forward/reverse map invariants and leave every logical page
// mapped exactly once.
func TestFTLInvariantsUnderProgramFailuresQuick(t *testing.T) {
	f := func(seed uint64, failPct uint8) bool {
		f := smallFTL()
		rate := float64(failPct%40) / 100 // 0–39% program failure rate
		rng := sim.NewRNG(seed)
		f.SetProgramFault(func() bool { return rng.Float64() < rate })
		written := map[int64]bool{}
		opRNG := sim.NewRNG(seed ^ 0xdead)
		// ~90 logical pages over a 120-page-logical device: heavy
		// overwrite traffic with frequent collection.
		for i := 0; i < 600; i++ {
			lpn := opRNG.Int63n(90)
			f.HostWrite(lpn*4096, 4096)
			written[lpn] = true
			if i%37 == 0 {
				if err := f.CheckInvariants(); err != nil {
					t.Logf("seed %d rate %.2f step %d: %v", seed, rate, i, err)
					return false
				}
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Logf("seed %d rate %.2f final: %v", seed, rate, err)
			return false
		}
		// Every written LPN still resolves; no unwritten LPN does.
		for lpn := int64(0); lpn < 90; lpn++ {
			if _, ok := f.Lookup(lpn); ok != written[lpn] {
				t.Logf("seed %d: lpn %d mapped=%v want %v", seed, lpn, ok, written[lpn])
				return false
			}
		}
		st := f.Stats()
		if st.MappedPages != int64(len(written)) {
			t.Logf("seed %d: MappedPages=%d want %d", seed, st.MappedPages, len(written))
			return false
		}
		// Accounting: every program attempt hit NAND; failures burned pages.
		// A failure is required only where rate × programs ≥ 20: the chance
		// of none is then at most e^-20 ≈ 2×10⁻⁹.
		if st.ProgramFailures == 0 && rate*float64(st.NANDPages) >= 20 {
			t.Logf("seed %d: rate %.2f injected no failures over %d programs", seed, rate, st.NANDPages)
			return false
		}
		if st.NANDPages < st.HostPages+st.GCMigrations {
			t.Logf("seed %d: NANDPages=%d < HostPages+GC=%d", seed, st.NANDPages, st.HostPages+st.GCMigrations)
			return false
		}
		if st.NANDPages != st.HostPages+st.GCMigrations+st.ProgramFailures {
			t.Logf("seed %d: NANDPages=%d != host %d + gc %d + failures %d",
				seed, st.NANDPages, st.HostPages, st.GCMigrations, st.ProgramFailures)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestFTLProgramFailureBurnsPage checks the precise mechanics of one
// injected failure: the failed page stays unmapped, the data lands on the
// next page, and the write pointer moved past both.
func TestFTLProgramFailureBurnsPage(t *testing.T) {
	f := smallFTL()
	fails := 1
	f.SetProgramFault(func() bool { fails--; return fails >= 0 })
	f.HostWrite(0, 4096)
	ppn, ok := f.Lookup(0)
	if !ok {
		t.Fatal("write with one program failure left LPN unmapped")
	}
	if ppn != 1 {
		t.Fatalf("data landed on ppn %d, want 1 (page 0 burned)", ppn)
	}
	st := f.Stats()
	if st.ProgramFailures != 1 || st.HostPages != 1 || st.NANDPages != 2 {
		t.Fatalf("stats %+v: want 1 failure, 1 host page, 2 NAND programs", st)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFTLInjectorDrivesProgramFaults wires the fault package end to end:
// a plan with ProgramFailRate installed on a device routes the injector's
// stream into its FTL.
func TestFTLInjectorDrivesProgramFaults(t *testing.T) {
	plan := fault.NewPlan(9)
	plan.ProgramFailRate = 0.5
	cfg := DefaultConfig()
	cfg.CapacityBytes = 8 << 20
	r := newRig(t, cfg, 64)
	r.dev.SetFaultInjector(plan.Injector(0))
	for i := 0; i < 50; i++ {
		r.dev.FTL().HostWrite(int64(i)*4096, 4096)
	}
	if got := r.dev.FTL().Stats().ProgramFailures; got == 0 {
		t.Fatal("installed injector produced no program failures at 50% rate")
	}
	if inj := r.dev.Injector().Stats().ProgramFails; inj == 0 {
		t.Fatal("injector stats did not count program failures")
	}
	if err := r.dev.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
