package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram collects latency-style samples with exact percentile
// reporting. Experiments use it to report request/batch latency
// distributions next to the paper's mean-based figures.
type Histogram struct {
	name    string
	samples []float64
	sorted  bool
}

// NewHistogram creates an empty named histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name reports the histogram's label.
func (h *Histogram) Name() string { return h.name }

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean reports the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range h.samples {
		s += v
	}
	return s / float64(len(h.samples))
}

// Percentile reports the p-th percentile (0 < p <= 100) by
// nearest-rank; it panics on an empty histogram or out-of-range p.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		panic("metrics: Percentile of empty histogram " + h.name)
	}
	if p <= 0 || p > 100 {
		panic("metrics: percentile out of range")
	}
	h.sort()
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.samples[rank]
}

// Max reports the largest sample.
func (h *Histogram) Max() float64 {
	h.sort()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Summary renders "name: n=… mean=… p50=… p99=… max=…" with a unit label.
func (h *Histogram) Summary(unit string) string {
	if len(h.samples) == 0 {
		return fmt.Sprintf("%s: no samples", h.name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.3g%s p50=%.3g%s p99=%.3g%s max=%.3g%s",
		h.name, h.Count(), h.Mean(), unit,
		h.Percentile(50), unit, h.Percentile(99), unit, h.Max(), unit)
	return b.String()
}
