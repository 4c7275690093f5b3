package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestInt63nRange(t *testing.T) {
	f := func(seed uint64, n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewRNG(1).Int63n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %g, want ~0.5", mean)
	}
}

func TestUint64Distribution(t *testing.T) {
	// Count bits set across many draws; should be ~50%.
	r := NewRNG(9)
	ones := 0
	n := 10000
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for v != 0 {
			ones += int(v & 1)
			v >>= 1
		}
	}
	frac := float64(ones) / float64(n*64)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("bit fraction = %g, want ~0.5", frac)
	}
}
