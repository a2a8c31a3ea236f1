package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.N() != 0 {
		t.Error("empty mean not zero")
	}
	for _, x := range []float64{2, 4, 6} {
		m.Add(x)
	}
	if m.Mean() != 4 {
		t.Errorf("Mean = %v, want 4", m.Mean())
	}
	if m.Min() != 2 || m.Max() != 6 {
		t.Errorf("Min/Max = %v/%v", m.Min(), m.Max())
	}
	if m.N() != 3 || m.Sum() != 12 {
		t.Errorf("N/Sum = %v/%v", m.N(), m.Sum())
	}
}

func TestMeanNegative(t *testing.T) {
	var m Mean
	m.Add(-5)
	m.Add(5)
	if m.Min() != -5 || m.Max() != 5 || m.Mean() != 0 {
		t.Errorf("stats = %v/%v/%v", m.Min(), m.Max(), m.Mean())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5) // one observation per bucket 0..99
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if p := h.Percentile(50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := h.Percentile(99); p != 99 {
		t.Errorf("p99 = %v, want 99", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Errorf("p100 = %v, want 100", p)
	}
	if got := h.Mean(); math.Abs(got-50) > 1e-9 {
		t.Errorf("Mean = %v, want 50", got)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(5)
	h.Add(1e9)
	if !math.IsInf(h.Percentile(100), 1) {
		t.Error("overflow percentile should be +Inf")
	}
	if p := h.Percentile(50); p != 6 {
		t.Errorf("p50 = %v, want 6", p)
	}
	if h.Max() != 1e9 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Add(-3)
	if p := h.Percentile(100); p != 1 {
		t.Errorf("negative obs percentile = %v, want 1 (bucket 0)", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 4)
	if h.Percentile(50) != 0 {
		t.Error("empty percentile != 0")
	}
}

func TestHistogramInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shape did not panic")
		}
	}()
	NewHistogram(0, 10)
}

// Property: histogram percentile is monotone in p and bounds the mean
// sensibly for uniform data.
func TestQuickHistogramMonotone(t *testing.T) {
	prop := func(raw []uint16) bool {
		h := NewHistogram(2, 50)
		for _, r := range raw {
			h.Add(float64(r % 120))
		}
		if h.N() == 0 {
			return true
		}
		last := 0.0
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
