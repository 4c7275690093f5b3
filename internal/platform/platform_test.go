package platform

import (
	"testing"

	"camsim/internal/hostmem"
	"camsim/internal/sim"
)

func TestDefaultsFilledIn(t *testing.T) {
	env := New(Options{})
	if len(env.Devs) != 12 {
		t.Fatalf("default SSDs = %d, want 12", len(env.Devs))
	}
	if got := env.GPU.TotalThreads(); got != 108*2048 {
		t.Fatalf("default GPU threads = %d, want 108 SMs x 2048", got)
	}
	if got := dramRate(env); got != 16*hostmem.DefaultConfig().ChannelBandwidth {
		t.Fatalf("default DRAM rate = %g, want 16 channels", got)
	}
	// 21 GB over the default fabric takes one second (plus the TLP overhead).
	if got := env.Fab.ReserveDMA(21e9); got < sim.Second || got > sim.Second+sim.Microsecond {
		t.Fatalf("21 GB over the default PCIe fabric took %v, want 1s", got)
	}
}

// dramRate measures the host memory's aggregate bytes/s by booking one
// second's worth of single-channel traffic on a fresh platform.
func dramRate(env *Env) float64 {
	n := int64(hostmem.DefaultConfig().ChannelBandwidth)
	return float64(n) / env.HM.ReserveTraffic(n).Seconds()
}

func TestMemoryChannelOverride(t *testing.T) {
	env := New(Options{MemoryChannels: 2})
	// Two channels at the default per-channel rate: the rest of the host
	// config stays default.
	if got := dramRate(env); got != 2*hostmem.DefaultConfig().ChannelBandwidth {
		t.Fatalf("DRAM rate = %g, want 2 channels at the default rate", got)
	}
}

func TestDeviceSeedsDiffer(t *testing.T) {
	env := New(Options{SSDs: 3, Seed: 5})
	seen := map[uint64]bool{}
	for _, d := range env.Devs {
		s := d.Config().Seed
		if seen[s] {
			t.Fatalf("duplicate device seed %d", s)
		}
		seen[s] = true
	}
}

func TestStartDevicesIdempotent(t *testing.T) {
	env := New(Options{SSDs: 2})
	env.StartDevices()
	env.StartDevices() // must not panic (ssd.Start panics on double start)
}

func TestRunStartsDevicesAndAdvancesClock(t *testing.T) {
	env := New(Options{SSDs: 1})
	fired := false
	env.E.Go("p", func(p *sim.Proc) {
		p.Sleep(100)
		fired = true
	})
	end := env.Run()
	if !fired || end < 100 {
		t.Fatalf("run end=%v fired=%v", end, fired)
	}
}

func TestSharedAddressSpace(t *testing.T) {
	env := New(Options{SSDs: 1})
	hb := env.HM.Alloc("h", 4096)
	gb := env.GPU.Alloc("g", 4096)
	if _, _, err := env.Space.Resolve(hb.Addr, 4096); err != nil {
		t.Fatal("host buffer not in shared space:", err)
	}
	if _, _, err := env.Space.Resolve(gb.Addr, 4096); err != nil {
		t.Fatal("GPU buffer not in shared space:", err)
	}
}
