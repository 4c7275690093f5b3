package xfer

import (
	"bytes"
	"slices"
	"testing"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/platform"
	"camsim/internal/sim"
)

// backends builds one instance of every backend over its own environment.
func backends(blockBytes int64) map[string]struct {
	env *platform.Env
	b   Backend
} {
	out := make(map[string]struct {
		env *platform.Env
		b   Backend
	})
	mk := func(name string, f func(env *platform.Env) Backend) {
		env := platform.New(platform.Options{SSDs: 3})
		out[name] = struct {
			env *platform.Env
			b   Backend
		}{env, f(env)}
	}
	mk("cam", func(env *platform.Env) Backend { return NewCAM(env, blockBytes, nil) })
	mk("bam", func(env *platform.Env) Backend {
		return NewBaM(env, bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs), blockBytes)
	})
	mk("spdk", func(env *platform.Env) Backend { return NewSPDK(env, blockBytes, 4) })
	mk("gds", func(env *platform.Env) Backend { return NewGDS(env, blockBytes) })
	mk("posix", func(env *platform.Env) Backend { return NewPOSIX(env, blockBytes, 2) })
	return out
}

// TestAllBackendsRoundTrip writes twelve 4 KiB blocks and reads them back on
// every backend; twelve 192 KiB granules on POSIX: one and a half RAID0
// stripes each, so every other granule straddles a stripe boundary in its
// middle and the kernel stack splits it there; and twelve 256 KiB granules
// on SPDK, two MDTS commands each.
func TestAllBackendsRoundTrip(t *testing.T) {
	const bb = 4096
	for name, bx := range backends(bb) {
		t.Run(name, func(t *testing.T) { roundTrip(t, bx.env, bx.b, bb) })
	}
	t.Run("posix-192KiB", func(t *testing.T) {
		env := platform.New(platform.Options{SSDs: 3})
		roundTrip(t, env, NewPOSIX(env, 192<<10, 2), 192<<10)
	})
	t.Run("spdk-256KiB", func(t *testing.T) {
		env := platform.New(platform.Options{SSDs: 3})
		roundTrip(t, env, NewSPDK(env, 256<<10, 4), 256<<10)
	})
}

// roundTrip writes 12 random blocks of bb bytes through b and reads them back.
func roundTrip(t *testing.T, env *platform.Env, b Backend, bb int64) {
	n := 12 * bb // spans all devices
	src := b.Alloc("src", n)
	dst := b.Alloc("dst", n)
	rng := sim.NewRNG(77)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(rng.Uint64())
	}
	env.E.Go("app", func(p *sim.Proc) {
		Write(p, b, 0, n, src, 0)
		Read(p, b, 0, n, dst, 0)
	})
	env.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatalf("%s round trip mismatch", b.Name())
	}
}

// stagedGranule is the staged tests' granule: two MDTS commands on SPDK.
const stagedGranule = 256 << 10

// TestStagedReadToGPUDataAndTraffic reads one granule through the SPDK
// backend in both data-plane modes: the same bytes land, every byte crosses
// host DRAM twice (the SSD's DMA into staging, the memcpy out of it) and the
// granule is one memcpy however many commands it took.
func TestStagedReadToGPUDataAndTraffic(t *testing.T) {
	const n = stagedGranule
	var got [2][]byte
	for mode, eager := range []bool{false, true} {
		prev := mem.DefaultEager()
		mem.SetDefaultEager(eager)
		env := platform.New(platform.Options{SSDs: 1})
		b := NewSPDK(env, n, 1)
		src := make([]byte, n)
		rng := sim.NewRNG(3)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		if err := env.Devs[0].Store().WriteLBAP(0, n/nvme.LBASize, mem.WrapBytes(src), 0); err != nil {
			t.Fatal(err)
		}
		dst := b.Alloc("dst", n)
		env.E.Go("app", func(p *sim.Proc) { Read(p, b, 0, n, dst, 0) })
		env.Run()
		mem.SetDefaultEager(prev)
		if !bytes.Equal(dst.Bytes(), src) {
			t.Fatalf("staged read data mismatch (eager=%v)", eager)
		}
		if tr := env.HM.TotalTraffic(); tr != 2*n {
			t.Fatalf("DRAM traffic = %d, want %d (two crossings, eager=%v)", tr, 2*n, eager)
		}
		if c := env.CE.Calls(); c != 1 {
			t.Fatalf("memcpy calls = %d, want 1 per granule (eager=%v)", c, eager)
		}
		got[mode] = append([]byte(nil), dst.Bytes()...)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatal("lazy and eager staged reads landed different bytes")
	}
}

// TestStagedWriteFromGPU writes one granule through the SPDK backend in both
// data-plane modes: the device stores the same bytes, with two DRAM
// crossings and one memcpy.
func TestStagedWriteFromGPU(t *testing.T) {
	const n = stagedGranule
	var stored [2][]byte
	for mode, eager := range []bool{false, true} {
		prev := mem.DefaultEager()
		mem.SetDefaultEager(eager)
		env := platform.New(platform.Options{SSDs: 1})
		b := NewSPDK(env, n, 1)
		src := b.Alloc("src", n)
		for i := range src.Bytes() {
			src.Bytes()[i] = byte(i % 253)
		}
		env.E.Go("app", func(p *sim.Proc) { Write(p, b, n, n, src, 0) }) // block 1
		env.Run()
		mem.SetDefaultEager(prev)
		got := make([]byte, n)
		if err := env.Devs[0].Store().ReadLBAP(n/nvme.LBASize, n/nvme.LBASize, mem.WrapBytes(got), 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src.Bytes()) {
			t.Fatalf("staged write data mismatch (eager=%v)", eager)
		}
		if tr := env.HM.TotalTraffic(); tr != 2*n {
			t.Fatalf("DRAM traffic = %d, want %d (eager=%v)", tr, 2*n, eager)
		}
		if c := env.CE.Calls(); c != 1 {
			t.Fatalf("memcpy calls = %d, want 1 per granule (eager=%v)", c, eager)
		}
		stored[mode] = got
	}
	if !bytes.Equal(stored[0], stored[1]) {
		t.Fatal("lazy and eager staged writes stored different bytes")
	}
}

// TestStagedBufferNamesDeterministic is the regression test for staging
// buffers once named by formatting the driver pointer (%p), the bug the
// pointerfmt rule of TestDeterminismRules now keeps out of every other
// site: ASLR made the name differ between identically-seeded runs, and
// every helper sharing a driver collided on the same name. On both staged
// backends, the helpers' host buffers are named in allocation order, the
// same on every build and unique per helper.
func TestStagedBufferNamesDeterministic(t *testing.T) {
	names := func(mk func(env *platform.Env) *staged) []string {
		s := mk(platform.New(platform.Options{SSDs: 2}))
		var out []string
		for h, ok := s.pool.TryGet(); ok; h, ok = s.pool.TryGet() {
			out = append(out, h.host.Name)
		}
		return out
	}
	for _, c := range []struct {
		mk   func(env *platform.Env) *staged
		want []string
	}{
		{func(env *platform.Env) *staged { return &NewSPDK(env, 4096, 3).staged },
			[]string{"spdk.staging.1", "spdk.staging.2", "spdk.staging.3"}},
		{func(env *platform.Env) *staged { return &NewPOSIX(env, 4096, 3).staged },
			[]string{"posix.helper0", "posix.helper1", "posix.helper2"}},
	} {
		for build := 0; build < 2; build++ {
			if got := names(c.mk); !slices.Equal(got, c.want) {
				t.Errorf("build %d: helper buffers %q, want %q", build, got, c.want)
			}
		}
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	const bb = 4096
	for name, bx := range backends(bb) {
		name, bx := name, bx
		t.Run(name, func(t *testing.T) {
			src := bx.b.Alloc("src", 4*bb)
			dst := bx.b.Alloc("dst", 8*bb)
			for i := range src.Bytes() {
				src.Bytes()[i] = byte(i % 250)
			}
			bx.env.E.Go("app", func(p *sim.Proc) {
				Write(p, bx.b, 16*bb, 4*bb, src, 0)
				Read(p, bx.b, 16*bb, 4*bb, dst, 4*bb)
			})
			bx.env.Run()
			if !bytes.Equal(dst.Bytes()[4*bb:], src.Bytes()) {
				t.Fatalf("%s offset round trip mismatch", name)
			}
		})
	}
}

// listRoundTrip scatters blocks from a random source buffer and gathers
// them back through a fresh backend — by list, or, when the offsets are
// nil, as the byte range the (then consecutive) blocks cover at stride
// placement — and reports both buffers and the simulated time it took.
func listRoundTrip(name string, bb int64, blocks []uint64, srcOffs, dstOffs []int64) (src, dst []byte, took sim.Time) {
	bx := backends(bb)[name]
	n := int64(len(blocks)) * bb
	sb, db := bx.b.Alloc("src", n), bx.b.Alloc("dst", n)
	rng := sim.NewRNG(99)
	for i := range sb.Bytes() {
		sb.Bytes()[i] = byte(rng.Uint64())
	}
	bx.env.E.Go("app", func(p *sim.Proc) {
		if srcOffs == nil {
			Write(p, bx.b, int64(blocks[0])*bb, n, sb, 0)
			Read(p, bx.b, int64(blocks[0])*bb, n, db, 0)
		} else {
			bx.b.(ListBackend).StartScatterList(p, blocks, sb, srcOffs).Wait(p)
			GatherList(p, bx.b.(ListBackend), blocks, db, dstOffs)
		}
		took = p.Now()
	})
	bx.env.Run()
	return sb.Bytes(), db.Bytes(), took
}

// TestListRoundTrip drives the scatter-gather list path on every list
// backend with two inputs. Scattered block ids paired with a permuted set
// of buffer offsets must round-trip byte-exactly, including when the gather
// lands in a different offset permutation than the scatter used. And the
// list a range transfer is — consecutive blocks at offs[i] = i*BlockBytes —
// must land the bytes the range transfer lands and take the same simulated
// time, except on CAM, where each of the two batches publishes 8 more bytes
// of region 1 per entry and completes later by exactly that DMA.
func TestListRoundTrip(t *testing.T) {
	const bb = 4096
	for name, bx := range backends(bb) {
		if _, ok := bx.b.(ListBackend); !ok {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			// Non-contiguous blocks with a stripe-adjacent run in the middle
			// (17,18,19 across 3 devices), plus offsets deliberately out of
			// order.
			blocks := []uint64{5, 17, 18, 19, 2, 40, 41, 9}
			n := int64(len(blocks))
			srcOffs := make([]int64, n)
			dstOffs := make([]int64, n)
			stride := make([]int64, n)
			for i := int64(0); i < n; i++ {
				srcOffs[i] = ((i + 3) % n) * bb
				dstOffs[i] = (n - 1 - i) * bb
				stride[i] = i * bb
			}
			src, dst, _ := listRoundTrip(name, bb, blocks, srcOffs, dstOffs)
			for i := int64(0); i < n; i++ {
				want := src[srcOffs[i] : srcOffs[i]+bb]
				got := dst[dstOffs[i] : dstOffs[i]+bb]
				if !bytes.Equal(want, got) {
					t.Errorf("%s: block %d (src off %d, dst off %d) corrupt",
						name, blocks[i], srcOffs[i], dstOffs[i])
				}
			}

			span := blockRange(16*bb, n*bb, bb)
			src, asList, tookList := listRoundTrip(name, bb, span, stride, stride)
			_, asRange, tookRange := listRoundTrip(name, bb, span, nil, nil)
			if !bytes.Equal(asList, src) || !bytes.Equal(asRange, src) {
				t.Errorf("%s: strided list or range round trip corrupt", name)
			}
			var extra sim.Time
			if name == "cam" {
				idle := func(bytes int64) sim.Time { return pcie.New(sim.New(), pcie.DefaultConfig()).ReserveDMA(bytes) }
				extra = 2 * (idle(n*16) - idle(n*8))
			}
			if tookList != tookRange+extra {
				t.Errorf("%s: strided list took %v, range %v + %v of list publish", name, tookList, tookRange, extra)
			}
		})
	}
}

// TestListSlicesNotRetained: the block and offset slices are the caller's
// again the instant Start*List returns. Every backend is handed scratch
// slices that are overwritten with garbage before the transfer has made any
// progress, and every block must still land, stamped, where it was sent.
//
// The last case is the same rule at CAM's one blocking point: with every
// MaxOutstanding slot taken, publish waits for one before it encodes region
// 1, and the slices are poisoned during that wait — at the instant of the
// call, by a process that runs as soon as the publisher yields.
func TestListSlicesNotRetained(t *testing.T) {
	const bb = 4096
	for name, bx := range backends(bb) {
		if lb, ok := bx.b.(ListBackend); ok {
			t.Run(name, func(t *testing.T) { listSlicesNotRetained(t, bx.env, lb, 0) })
		}
	}
	t.Run("cam/slots-full", func(t *testing.T) {
		env := platform.New(platform.Options{SSDs: 3})
		listSlicesNotRetained(t, env, NewCAM(env, bb, nil), cam.DefaultConfig(3).MaxOutstanding)
	})
}

// listSlicesNotRetained scatters and gathers eight stamped blocks through lb,
// poisoning the slices right after each Start*List returns — or, with fill
// long reads started first, while the call is still waiting for a slot.
func listSlicesNotRetained(t *testing.T, env *platform.Env, lb ListBackend, fill int) {
	bb := lb.BlockBytes()
	blocks := []uint64{5, 17, 18, 19, 2, 40, 41, 9}
	offs := make([]int64, len(blocks))
	src := lb.Alloc("src", int64(len(blocks))*bb)
	dst := lb.Alloc("dst", int64(len(blocks))*bb)
	for i, blk := range blocks {
		offs[i] = int64(len(blocks)-1-i) * bb
		for j := int64(0); j < bb; j++ {
			src.Bytes()[offs[i]+j] = byte(blk)
		}
	}
	const big = 2048
	scratch := lb.Alloc("scratch", big*bb)
	start := func(p *sim.Proc, f func(*sim.Proc, []uint64, *gpu.Buffer, []int64) Handle, buf *gpu.Buffer) {
		ids, at := append([]uint64(nil), blocks...), append([]int64(nil), offs...)
		poison := func() {
			for i := range ids {
				ids[i], at[i] = ^uint64(0), -1
			}
		}
		if fill == 0 {
			h := f(p, ids, buf, at)
			poison()
			h.Wait(p)
			return
		}
		t0 := p.Now()
		lb.StartGatherList(p, ids, scratch, at).Wait(p)
		unblocked := p.Now() - t0 // a whole batch this size with slots free
		var hs []Handle
		for i := 0; i < fill; i++ {
			hs = append(hs, lb.StartRead(p, 1<<20*bb, big*bb, scratch, 0))
		}
		poisoned := sim.Time(-1)
		env.E.Go("poison", func(q *sim.Proc) {
			poisoned = q.Now()
			poison()
		})
		t0 = p.Now()
		hs = append(hs, f(p, ids, buf, at))
		if poisoned != t0 {
			t.Errorf("slices poisoned at %v, want during the call made at %v", poisoned, t0)
		}
		if took := p.Now() - t0; took < 4*unblocked {
			t.Errorf("Start returned after %v, a whole unblocked batch takes %v: it did not wait for a slot", took, unblocked)
		}
		for _, h := range hs {
			h.Wait(p)
		}
	}
	env.E.Go("app", func(p *sim.Proc) {
		start(p, lb.StartScatterList, src)
		start(p, lb.StartGatherList, dst)
	})
	env.Run()
	for i, blk := range blocks {
		for j := int64(0); j < bb; j++ {
			if got := dst.Bytes()[offs[i]+j]; got != byte(blk) {
				t.Fatalf("block %d byte %d = %#x, want its stamp %#x", blk, j, got, byte(blk))
			}
		}
	}
}

func TestAsyncOverlap(t *testing.T) {
	// Two concurrent CAM reads must not take twice as long as one (they
	// share the array but overlap in flight).
	env := platform.New(platform.Options{SSDs: 4})
	b := NewCAM(env, 4096, nil)
	buf := b.Alloc("buf", 2048*4096)
	var serial, overlapped sim.Time
	env.E.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		Read(p, b, 0, 1024*4096, buf, 0)
		Read(p, b, 1024*4096, 1024*4096, buf, 1024*4096)
		serial = p.Now() - t0

		t0 = p.Now()
		h1 := b.StartRead(p, 0, 1024*4096, buf, 0)
		h2 := b.StartRead(p, 1024*4096, 1024*4096, buf, 1024*4096)
		h1.Wait(p)
		h2.Wait(p)
		overlapped = p.Now() - t0
	})
	env.Run()
	if overlapped >= serial {
		t.Fatalf("async reads did not overlap: serial=%v overlapped=%v", serial, overlapped)
	}
}

func TestUnalignedPanics(t *testing.T) {
	env := platform.New(platform.Options{SSDs: 2})
	b := NewCAM(env, 4096, nil)
	buf := b.Alloc("buf", 8192)
	panicked := false
	env.E.Go("app", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		b.StartRead(p, 100, 4096, buf, 0)
	})
	env.Run()
	if !panicked {
		t.Fatal("unaligned read did not panic")
	}
}

func TestBlockRange(t *testing.T) {
	got := blockRange(8192, 12288, 4096)
	want := []uint64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("blockRange = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blockRange = %v, want %v", got, want)
		}
	}
}

func TestBackendNames(t *testing.T) {
	for name, bx := range backends(4096) {
		if bx.b.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		if bx.b.BlockBytes() != 4096 {
			t.Errorf("%s: BlockBytes = %d", name, bx.b.BlockBytes())
		}
	}
}

// TestReadAllocsIndependentOfSize is the allocation ceiling of the adapters:
// at steady state a synchronous Read costs the host one object per call (the
// block-id list; the handle and its signal are carved 64 to a slab, on CAM
// inside the Batch) and nothing per granule, on every backend.
func TestReadAllocsIndependentOfSize(t *testing.T) {
	const bb = 4096
	ceiling := map[string]float64{"cam": 1, "bam": 1, "spdk": 1, "gds": 1, "posix": 1}
	sizes := []int64{64, 512}
	got := map[string][]float64{}
	for _, blocks := range sizes {
		for name, bx := range backends(bb) {
			dst := bx.b.Alloc("dst", blocks*bb)
			bx.env.E.Go("app", func(p *sim.Proc) {
				read := func() { Read(p, bx.b, 0, blocks*bb, dst, 0) }
				for w := 0; w < 4; w++ {
					read()
				}
				got[name] = append(got[name], testing.AllocsPerRun(128, read)) // two slabs' worth
			})
			bx.env.Run()
		}
	}
	for name, max := range ceiling {
		if a := got[name]; a[0] != a[1] || a[0] > max {
			t.Errorf("%s: %v allocs per Read of %d blocks, %v per Read of %d; want equal and at most %v",
				name, a[0], sizes[0], a[1], sizes[1], max)
		}
	}
}
