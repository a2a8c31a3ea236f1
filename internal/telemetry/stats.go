package telemetry

// The streaming statistics the simulator and the collectors share:
// running means and bounded histograms with percentile queries.

import (
	"fmt"
	"math"
)

// Mean accumulates a running mean/min/max.
type Mean struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records one observation.
func (m *Mean) Add(x float64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.n++
	m.sum += x
}

// Merge folds another accumulator into this one. Merging an empty
// accumulator is a no-op; merging into an empty one copies the other
// exactly (bit-identical min/max/sum), so a single-shard merge
// reproduces the source accumulator. Merge order matters for the
// floating-point sum — callers that need deterministic results must
// merge in a fixed order.
func (m *Mean) Merge(o *Mean) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
	m.sum += o.sum
}

// N returns the observation count.
func (m *Mean) N() int64 { return m.n }

// Mean returns the running mean (0 when empty).
func (m *Mean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Sum returns the accumulated sum.
func (m *Mean) Sum() float64 { return m.sum }

// Min returns the smallest observation (0 when empty).
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest observation (0 when empty).
func (m *Mean) Max() float64 { return m.max }

// Histogram is a fixed-width bucket histogram over [0, buckets*width)
// with an overflow bucket; it supports percentile queries with
// bucket-granularity accuracy.
type Histogram struct {
	width    float64
	counts   []int64
	overflow int64
	total    int64
	mean     Mean
}

// NewHistogram creates a histogram with the given bucket width and
// count (both must be positive).
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic(fmt.Sprintf("telemetry: invalid histogram shape width=%v buckets=%d", width, buckets))
	}
	return &Histogram{width: width, counts: make([]int64, buckets)}
}

// Add records one observation (negative values clamp to bucket 0).
func (h *Histogram) Add(x float64) {
	h.mean.Add(x)
	h.total++
	if x < 0 {
		h.counts[0]++
		return
	}
	b := int(x / h.width)
	if b >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[b]++
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// Merge folds another histogram into this one; both must share the
// same bucket shape (width and count). Counts and the exact-mean
// accumulator add, so percentile queries and Mean/Max on the merged
// histogram summarize the union of observations. As with Mean.Merge,
// callers needing deterministic float sums must merge in a fixed order.
func (h *Histogram) Merge(o *Histogram) error {
	if h.width != o.width || len(h.counts) != len(o.counts) {
		return fmt.Errorf("telemetry: merging histograms of different shape (%v/%d vs %v/%d)",
			h.width, len(h.counts), o.width, len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.mean.Merge(&o.mean)
	return nil
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the exact running mean of all observations.
func (h *Histogram) Mean() float64 { return h.mean.Mean() }

// Max returns the exact maximum observation.
func (h *Histogram) Max() float64 { return h.mean.Max() }

// Percentile returns an upper bound for the p-th percentile
// (0 < p <= 100) at bucket granularity; observations in the overflow
// bucket report +Inf.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	want := int64(math.Ceil(p / 100 * float64(h.total)))
	if want < 1 {
		want = 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum >= want {
			return float64(b+1) * h.width
		}
	}
	return math.Inf(1)
}
