package hostmem

import (
	"math"
	"testing"

	"camsim/internal/mem"
	"camsim/internal/sim"
)

func newMem(cfg Config) (*sim.Engine, *Memory) {
	e := sim.New()
	return e, New(e, mem.NewSpace(), cfg)
}

func TestBandwidthScalesWithChannels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	_, m2 := newMem(cfg)
	cfg.Channels = 16
	_, m16 := newMem(cfg)
	// The same bytes cross eight times the channels in an eighth of the time.
	n := int64(2 * cfg.ChannelBandwidth) // one second's worth on two channels
	if t2, t16 := m2.ReserveTraffic(n), m16.ReserveTraffic(n); t2 != sim.Second || t16 != sim.Second/8 {
		t.Fatalf("%d bytes take %v on 2 channels and %v on 16, want 1s and 125ms", n, t2, t16)
	}
}

func TestTrafficTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.ChannelBandwidth = 1e9
	e, m := newMem(cfg)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		p.SleepUntil(m.ReserveTraffic(1000))
		done = p.Now()
	})
	e.Run()
	if done != 1000 {
		t.Fatalf("1000B at 1GB/s took %v, want 1000ns", done)
	}
}

func TestAllocRegistersInSpace(t *testing.T) {
	e := sim.New()
	space := mem.NewSpace()
	m := New(e, space, DefaultConfig())
	b := m.Alloc("buf", 8192)
	got, kind, err := space.Resolve(b.Addr, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if kind != mem.HostDRAM {
		t.Fatalf("kind = %v", kind)
	}
	got[0] = 0x42
	if b.Payload().Bytes()[0] != 0x42 {
		t.Fatal("resolved bytes do not alias buffer")
	}
}

func TestFreeUnregisters(t *testing.T) {
	e := sim.New()
	space := mem.NewSpace()
	m := New(e, space, DefaultConfig())
	b := m.Alloc("buf", 4096)
	addr := b.Addr
	b.Free()
	if _, _, err := space.Resolve(addr, 1); err == nil {
		t.Fatal("freed buffer still resolvable")
	}
	if m.Allocated() != 0 {
		t.Fatalf("Allocated = %d after free", m.Allocated())
	}
}

func TestCapacityEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 1 << 20
	e := sim.New()
	m := New(e, mem.NewSpace(), cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity alloc did not panic")
		}
	}()
	m.Alloc("big", 2<<20)
}

func TestTotalTrafficAccounting(t *testing.T) {
	e, m := newMem(DefaultConfig())
	e.Go("p", func(p *sim.Proc) {
		p.SleepUntil(m.ReserveTraffic(1000))
		p.SleepUntil(m.ReserveTraffic(2000))
	})
	e.Run()
	if m.TotalTraffic() != 3000 {
		t.Fatalf("TotalTraffic = %d", m.TotalTraffic())
	}
	if math.IsNaN(m.AchievedBandwidth()) {
		t.Fatal("AchievedBandwidth NaN")
	}
}

func TestZeroChannelsPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero channels did not panic")
		}
	}()
	newMem(cfg)
}
