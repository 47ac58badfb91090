package scope

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// The exposition half of the hand-rolled Prometheus plane: one
// histogram type and the writers that maod's and maorouter's /metrics
// handlers, and the runtime health block both append, render through.

// LatencyBuckets are the request-latency bounds of both servers:
// corpus-size units optimize in single-digit milliseconds, a saturated
// queue adds tens to hundreds more, and the router adds
// sub-millisecond overhead on top.
var LatencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a cumulative fixed-bucket histogram in the Prometheus
// sense: bucket i counts observations ≤ bounds[i], and the sum is kept
// as float64 bits for atomic access. Observe is safe for concurrent
// use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns an empty histogram over ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Write renders h as one series set of the histogram family name. A
// non-empty labels (`pass="REDTEST"`, no braces) labels every series,
// ahead of the buckets' le.
func (h *Histogram) Write(w io.Writer, name, labels string) {
	counts := make([]int64, len(h.bounds))
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	writeHistogram(w, name, labels, h.bounds, counts, h.count.Load(), math.Float64frombits(h.sumBits.Load()))
}

// writeHistogram writes the cumulative _bucket series of per-bucket
// counts over bounds, the +Inf bucket (total), _sum and _count.
func writeHistogram(w io.Writer, name, labels string, bounds []float64, counts []int64, total int64, sum float64) {
	le, set := "{", ""
	if labels != "" {
		le, set = "{"+labels+",", "{"+labels+"}"
	}
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", name, le, ub, cum)
	}
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, le, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, total)
}

// WriteMetric writes one metric family: its HELP and TYPE lines, then
// one sample per (labels, value) pair, labels being a braced label set
// or "" for the unlabeled sample. With no pairs it writes the header
// alone, for series written separately (Histogram.Write).
func WriteMetric(w io.Writer, help, typ, name string, pairs ...string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := 0; i+1 < len(pairs); i += 2 {
		fmt.Fprintf(w, "%s%s %s\n", name, pairs[i], pairs[i+1])
	}
}

// WriteHistogram writes an unlabeled histogram family: header and
// series.
func WriteHistogram(w io.Writer, help, name string, h *Histogram) {
	WriteMetric(w, help, "histogram", name)
	h.Write(w, name, "")
}
