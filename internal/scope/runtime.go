package scope

import (
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
)

// Go runtime health exposition (satellite of MAOSCOPE): goroutine
// count, GC pause-time histogram, and heap in-use bytes, read from
// runtime/metrics and rendered in the same hand-rolled Prometheus
// text format the daemon and router /metrics handlers emit. Both
// processes call WriteRuntimeMetrics at the end of their handler, so
// maotop (and any real Prometheus) can watch runtime pressure next to
// request metrics.

// gcPauseBounds are the le bounds the runtime's pause histogram is
// collapsed onto — fixed so the exposition shape is stable across Go
// releases (the runtime's own bucket layout is not).
var gcPauseBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// runtimeSamples is the fixed sample set WriteRuntimeMetrics reads.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/gc/pauses:seconds",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/cycles/total:gc-cycles",
}

// WriteRuntimeMetrics writes the Go runtime health metrics with the
// given name prefix (e.g. "maod" → maod_go_goroutines). It allocates;
// it is only ever called from a /metrics scrape, never the request
// path.
func WriteRuntimeMetrics(w io.Writer, prefix string) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)

	byName := make(map[string]metrics.Sample, len(samples))
	for _, s := range samples {
		byName[s.Name] = s
	}

	if v, ok := sampleUint(byName, "/sched/goroutines:goroutines"); ok {
		WriteMetric(w, "Number of live goroutines.", "gauge", prefix+"_go_goroutines", "", strconv.FormatUint(v, 10))
	}

	objs, ok1 := sampleUint(byName, "/memory/classes/heap/objects:bytes")
	unused, ok2 := sampleUint(byName, "/memory/classes/heap/unused:bytes")
	if ok1 && ok2 {
		WriteMetric(w, "Bytes of heap memory in use (live objects plus unused span capacity).", "gauge",
			prefix+"_go_heap_inuse_bytes", "", strconv.FormatUint(objs+unused, 10))
	}

	if v, ok := sampleUint(byName, "/gc/cycles/total:gc-cycles"); ok {
		WriteMetric(w, "Completed GC cycles.", "counter", prefix+"_go_gc_cycles_total", "", strconv.FormatUint(v, 10))
	}

	if s, ok := byName["/gc/pauses:seconds"]; ok && s.Value.Kind() == metrics.KindFloat64Histogram {
		writePauseHistogram(w, prefix, s.Value.Float64Histogram())
	}
}

func sampleUint(byName map[string]metrics.Sample, name string) (uint64, bool) {
	s, ok := byName[name]
	if !ok || s.Value.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return s.Value.Uint64(), true
}

// writePauseHistogram collapses the runtime's variable-bucket pause
// histogram onto gcPauseBounds, emitting a standard cumulative
// Prometheus histogram. The _sum is approximated from bucket
// midpoints — pause totals are for trend-watching, not accounting.
func writePauseHistogram(w io.Writer, prefix string, h *metrics.Float64Histogram) {
	counts := make([]int64, len(gcPauseBounds)+1) // +1 for +Inf
	var sum float64
	var total int64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo := math.Inf(-1)
		if i < len(h.Buckets) {
			lo = h.Buckets[i]
		}
		hi := math.Inf(1)
		if i+1 < len(h.Buckets) {
			hi = h.Buckets[i+1]
		}
		mid := lo
		if !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		} else if math.IsInf(lo, -1) {
			mid = hi
		}
		if mid < 0 || math.IsInf(mid, 1) {
			mid = 0
		}
		// A runtime bucket lands in the first fixed bound that holds
		// its upper edge.
		idx := sort.SearchFloat64s(gcPauseBounds, hi)
		counts[idx] += int64(n)
		sum += mid * float64(n)
		total += int64(n)
	}
	name := prefix + "_go_gc_pause_seconds"
	WriteMetric(w, "Stop-the-world GC pause durations.", "histogram", name)
	writeHistogram(w, name, "", gcPauseBounds, counts, total, sum)
}
