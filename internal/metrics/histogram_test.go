package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %g", h.Mean())
	}
	if h.Percentile(50) != 50 {
		t.Fatalf("p50 = %g", h.Percentile(50))
	}
	if h.Percentile(99) != 99 {
		t.Fatalf("p99 = %g", h.Percentile(99))
	}
	if h.Percentile(1) != 1 || h.Max() != 100 {
		t.Fatalf("p1/max = %g/%g", h.Percentile(1), h.Max())
	}
}

func TestHistogramAddAfterSort(t *testing.T) {
	h := NewHistogram("x")
	h.Add(5)
	_ = h.Percentile(50) // forces sort
	h.Add(1)
	if h.Percentile(50) != 1 {
		t.Fatal("sample added after sort lost ordering")
	}
}

func TestHistogramEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty percentile")
		}
	}()
	NewHistogram("e").Percentile(50)
}

func TestHistogramBadPercentilePanics(t *testing.T) {
	h := NewHistogram("b")
	h.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on p=0")
		}
	}()
	h.Percentile(0)
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram("lat")
	h.Add(2)
	s := h.Summary("us")
	if s == "" || s == "lat: no samples" {
		t.Fatalf("summary = %q", s)
	}
	if NewHistogram("e").Summary("us") != "e: no samples" {
		t.Fatal("empty summary wrong")
	}
}

// Property: percentile is monotone and bounded by min/max.
func TestHistogramPercentileMonotoneQuick(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		h := NewHistogram("q")
		for _, v := range vals {
			h.Add(v)
		}
		prev := math.Inf(-1)
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return h.Percentile(1e-9) == sorted[0] && h.Max() == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
