package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// register adds a range backed by caller-owned bytes: the payload is an
// eager view over data, so writes to the slice are the region's content.
func register(s *Space, name string, base Addr, data []byte, kind Kind) *Region {
	return s.RegisterPayload(name, base, WrapBytes(data), kind)
}

func TestRegisterAndResolve(t *testing.T) {
	s := NewSpace()
	data := make([]byte, 4096)
	register(s, "dram", 0x1000, data, HostDRAM)
	buf, kind, err := s.Resolve(0x1800, 16)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HostDRAM {
		t.Fatalf("kind = %v", kind)
	}
	copy(buf, []byte("hello"))
	if !bytes.Equal(data[0x800:0x805], []byte("hello")) {
		t.Fatal("resolved slice does not alias backing data")
	}
}

func TestResolveUnmapped(t *testing.T) {
	s := NewSpace()
	register(s, "a", 0x1000, make([]byte, 16), HostDRAM)
	for _, addr := range []Addr{0x0, 0xfff, 0x1010, 0x9999} {
		if _, _, err := s.Resolve(addr, 1); err == nil {
			t.Errorf("Resolve(%#x) succeeded, want error", uint64(addr))
		}
	}
}

func TestResolveCrossingRegionEnd(t *testing.T) {
	s := NewSpace()
	register(s, "a", 0x1000, make([]byte, 16), HostDRAM)
	if _, _, err := s.Resolve(0x1008, 16); err == nil {
		t.Fatal("cross-boundary resolve succeeded")
	}
}

func TestRegisterOverlapPanics(t *testing.T) {
	s := NewSpace()
	register(s, "a", 0x1000, make([]byte, 0x100), HostDRAM)
	cases := []struct {
		base Addr
		size int
	}{
		{0x1080, 0x10},  // inside
		{0x0f80, 0x100}, // spans start
		{0x10f0, 0x100}, // spans end
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("overlap base=%#x not detected", uint64(c.base))
				}
			}()
			register(s, "b", c.base, make([]byte, c.size), GPUHBM)
		}()
	}
}

func TestRegisterAdjacentOK(t *testing.T) {
	s := NewSpace()
	register(s, "a", 0x1000, make([]byte, 0x100), HostDRAM)
	register(s, "b", 0x1100, make([]byte, 0x100), GPUHBM) // flush against a
	register(s, "c", 0x0f00, make([]byte, 0x100), HostDRAM)
	if len(s.regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(s.regions))
	}
	// Verify sort order.
	prev := Addr(0)
	for _, r := range s.regions {
		if r.Base < prev {
			t.Fatal("regions not sorted")
		}
		prev = r.Base
	}
}

func TestUnregister(t *testing.T) {
	s := NewSpace()
	register(s, "a", 0x1000, make([]byte, 16), HostDRAM)
	s.Unregister(0x1000)
	if _, _, err := s.Resolve(0x1000, 1); err == nil {
		t.Fatal("resolve after unregister succeeded")
	}
	// Same range can be registered again.
	register(s, "a2", 0x1000, make([]byte, 16), GPUHBM)
}

func TestKindOf(t *testing.T) {
	s := NewSpace()
	register(s, "g", 0x2000, make([]byte, 16), GPUHBM)
	_, _, k, err := s.ResolvePayload(0x2008, 1)
	if err != nil || k != GPUHBM {
		t.Fatalf("kind of 0x2008 = %v, %v", k, err)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := NewArena("t", 0x1001, 1<<20)
	addr := a.Alloc(100, 4096)
	if addr%4096 != 0 {
		t.Fatalf("addr %#x not 4K aligned", uint64(addr))
	}
	addr2 := a.Alloc(1, 1)
	if addr2 < addr+100 {
		t.Fatalf("second alloc overlaps first")
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena("t", 0, 128)
	a.Alloc(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted arena did not panic")
		}
	}()
	a.Alloc(100, 1)
}

func TestArenaBadAlignPanics(t *testing.T) {
	a := NewArena("t", 0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two align did not panic")
		}
	}()
	a.Alloc(8, 3)
}

// Property: arena allocations never overlap and respect alignment.
func TestArenaNoOverlapQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewArena("q", 0x1000, 1<<30)
		type span struct{ lo, hi Addr }
		var spans []span
		for _, sz := range sizes {
			n := int64(sz%8192) + 1
			addr := a.Alloc(n, 512)
			if addr%512 != 0 {
				return false
			}
			for _, sp := range spans {
				if addr < sp.hi && sp.lo < addr+Addr(n) {
					return false
				}
			}
			spans = append(spans, span{addr, addr + Addr(n)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if HostDRAM.String() != "HostDRAM" || GPUHBM.String() != "GPUHBM" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String broken")
	}
}
