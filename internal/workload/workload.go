// Package workload generates the access patterns the cache ablation
// replays: uniform random (the paper's microbenchmarks) and Zipfian skew.
// Generators are deterministic under a seed and allocation-free in the
// steady state.
package workload

import (
	"math"

	"camsim/internal/sim"
)

// Generator yields block indices in [0, span).
type Generator interface {
	// Next returns the next block index.
	Next() uint64
}

// NewUniform returns a uniform random generator over [0, span).
func NewUniform(seed uint64, span uint64) Generator {
	if span == 0 {
		panic("workload: span must be positive")
	}
	return &uniform{rng: sim.NewRNG(seed), span: span}
}

type uniform struct {
	rng  *sim.RNG
	span uint64
}

func (u *uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.span))) }

// NewZipfian returns a Zipf(θ)-skewed generator over [0, span) using the
// Gray et al. rejection-free method (as in YCSB). θ in (0, 1); higher is
// more skewed. Hot items are scattered across the span by a multiplicative
// hash so skew does not correlate with physical placement.
func NewZipfian(seed uint64, span uint64, theta float64) Generator {
	if span == 0 {
		panic("workload: span must be positive")
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: zipfian theta must be in (0,1)")
	}
	z := &zipfian{rng: sim.NewRNG(seed), span: span, theta: theta}
	z.zetan = zeta(span, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(span), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

type zipfian struct {
	rng          *sim.RNG
	span         uint64
	theta        float64
	zetan, zeta2 float64
	alpha, eta   float64
}

// zeta computes the generalized harmonic number H_{n,theta}. For very
// large n it samples the tail (the truncation error is far below the
// skew's own variance).
func zeta(n uint64, theta float64) float64 {
	const exact = 1 << 20
	if n <= exact {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	// Exact head + integral-approximated tail.
	head := zeta(exact, theta)
	// ∫ x^-θ dx from `exact` to n.
	tail := (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
	return head + tail
}

func (z *zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.span) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.span {
		rank = z.span - 1
	}
	// Scatter ranks over the span so "hot" does not mean "low address".
	return scatter(rank) % z.span
}

// scatter is a fixed bijective-ish mixing hash (SplitMix64 finalizer).
func scatter(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
