package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformInRangeAndDeterministic(t *testing.T) {
	f := func(seed uint64, span32 uint32) bool {
		span := uint64(span32%100000) + 1
		a, b := NewUniform(seed, span), NewUniform(seed, span)
		for i := 0; i < 100; i++ {
			va, vb := a.Next(), b.Next()
			if va != vb || va >= span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformCoversSpan(t *testing.T) {
	g := NewUniform(1, 16)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[g.Next()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform covered %d of 16 values", len(seen))
	}
}

func TestZipfianInRange(t *testing.T) {
	g := NewZipfian(7, 1000, 0.9)
	for i := 0; i < 10000; i++ {
		if v := g.Next(); v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
	}
}

func TestZipfianSkewIncreasesWithTheta(t *testing.T) {
	topShare := func(theta float64) float64 {
		g := NewZipfian(5, 100000, theta)
		counts := map[uint64]int{}
		const n = 200000
		for i := 0; i < n; i++ {
			counts[g.Next()]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / n
	}
	low := topShare(0.5)
	high := topShare(0.99)
	if high <= low {
		t.Fatalf("skew did not increase with theta: %.4f vs %.4f", low, high)
	}
	if high < 0.02 {
		t.Fatalf("theta=0.99 hottest item share = %.4f, expected strong skew", high)
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a, b := NewZipfian(9, 5000, 0.8), NewZipfian(9, 5000, 0.8)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed zipfian diverged")
		}
	}
}

func TestZetaLargeNFinite(t *testing.T) {
	v := zeta(1<<32, 0.9)
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		t.Fatalf("zeta(2^32) = %g", v)
	}
	// Must exceed the exact 2^20 prefix.
	if v <= zeta(1<<20, 0.9) {
		t.Fatal("tail approximation added nothing")
	}
}

func TestBadArgsPanic(t *testing.T) {
	cases := []func(){
		func() { NewUniform(1, 0) },
		func() { NewZipfian(1, 0, 0.5) },
		func() { NewZipfian(1, 10, 0) },
		func() { NewZipfian(1, 10, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
