package mem

import (
	"fmt"
	"testing"
)

// spliceTier builds the kv tier's shape — a lazy payload of 4 KiB frames,
// each a 32-byte stamp followed by a zero tail — and returns one step of its
// steady-state traffic at a random frame: a whole-frame PayloadCopy (a
// fill), a stamp WriteAt (a re-stamp) or a 32-byte stamp ReadAt (the attend
// path), in turn.
func spliceTier(frames int) (step func(i int), release func()) {
	const frame, stamp = 4096, 32
	tier := NewPayload(int64(frames)*frame, false)
	src := NewPayload(frame, false)
	st := pattern(7, stamp)
	got := make([]byte, stamp)
	src.WriteAt(st, 0)
	for f := 0; f < frames; f++ {
		tier.WriteAt(st, int64(f)*frame)
	}
	rng := lcg(frames)
	step = func(i int) {
		off := int64(rng.next()>>33%uint64(frames)) * frame
		switch i % 3 {
		case 0:
			PayloadCopy(tier, off, src, 0, frame)
		case 1:
			tier.WriteAt(st, off)
		default:
			tier.ReadAt(got, off)
		}
	}
	return step, func() { tier.Release(); src.Release() }
}

func benchPayloadSplice(b *testing.B, frames int) {
	step, release := spliceTier(frames)
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(300, func() { step(b.N) }); a != 0 {
		b.Fatalf("steady-state tier traffic allocates %.1f times per op, want 0", a)
	}
}

// BenchmarkPayloadSplice measures one content update or stamp read of a
// kv-tier-shaped payload at two tier sizes; the cost must not follow the
// size.
func BenchmarkPayloadSplice(b *testing.B) {
	for _, frames := range []int{256, 16384} {
		b.Run(fmt.Sprint(frames), func(b *testing.B) { benchPayloadSplice(b, frames) })
	}
}

// TestPayloadSpliceScaling guards the page cells' cost model: an update or
// read touches the cells of its own pages, never the rest of the payload,
// and allocates nothing once chunks are warm. The sorted extent list this
// replaced measured about 2x between the two sizes (a binary search and
// cache misses over a 64x larger list); what is left is cache misses. The
// bound is loose, and a size's time is the fastest of up to three rounds,
// because interference on a shared host only ever adds time.
func TestPayloadSpliceScaling(t *testing.T) {
	step, release := spliceTier(16384)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() { step(i); i++ })
	release()
	if allocs != 0 {
		t.Errorf("steady-state tier traffic allocates %.1f times per op, want 0", allocs)
	}

	const maxRatio = 4
	var small, large int64
	for round := 0; round < 3; round++ {
		s := testing.Benchmark(func(b *testing.B) { benchPayloadSplice(b, 256) }).NsPerOp()
		l := testing.Benchmark(func(b *testing.B) { benchPayloadSplice(b, 16384) }).NsPerOp()
		if round == 0 || s < small {
			small = s
		}
		if round == 0 || l < large {
			large = l
		}
		t.Logf("round %d: %d ns/op at 256 frames, %d ns/op at 16384", round, s, l)
		if large <= maxRatio*small {
			return
		}
	}
	t.Errorf("tier traffic at 16384 frames costs %d ns/op, %d ns/op at 256: ratio %.1f, want <= %d",
		large, small, float64(large)/float64(small), maxRatio)
}
