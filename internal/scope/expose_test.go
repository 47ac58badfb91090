package scope

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramSum: observations sum exactly (guards the CAS loop).
func TestHistogramSum(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	h.Observe(0.001)
	h.Observe(0.002)
	if n := h.count.Load(); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if sum := math.Float64frombits(h.sumBits.Load()); math.Abs(sum-0.003) > 1e-9 {
		t.Fatalf("sum = %g", sum)
	}
}

// TestHistogramExposition pins the text one histogram renders: header,
// cumulative buckets with the series labels ahead of le, an +Inf bucket
// counting observations beyond the last bound, and a labeled _sum and
// _count.
func TestHistogramExposition(t *testing.T) {
	h := NewHistogram([]float64{.001, .01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(2)
	var b strings.Builder
	WriteMetric(&b, "Demo latency.", "histogram", "demo_seconds")
	h.Write(&b, "demo_seconds", `pass="X"`)
	want := `# HELP demo_seconds Demo latency.
# TYPE demo_seconds histogram
demo_seconds_bucket{pass="X",le="0.001"} 1
demo_seconds_bucket{pass="X",le="0.01"} 2
demo_seconds_bucket{pass="X",le="+Inf"} 3
demo_seconds_sum{pass="X"} 2.0055
demo_seconds_count{pass="X"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	m, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := m.Quantile("demo_seconds", nil, 0.5); !ok || q <= 0.001 || q > 0.01 {
		t.Errorf("median = %g, %v; want inside (0.001, 0.01]", q, ok)
	}
}
