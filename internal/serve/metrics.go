package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mao/internal/pass"
	"mao/internal/scope"
	"mao/internal/trace"
)

// metrics is the hand-rolled observability plane: atomic counters and
// a fixed-bucket latency histogram, rendered in Prometheus text
// exposition format on /metrics. No third-party client library — the
// format is a few lines of text, and the daemon stays stdlib-only.
type metrics struct {
	requestsByCode sync.Map // int (status code) → *atomic.Int64
	latency        histogram

	// queueWait is the admission-to-pickup wait, split out from the
	// request latency so queueing pressure is visible separately from
	// service time (one observation per executed job; cache hits never
	// queue and are absent).
	queueWait histogram

	// passLatency histograms per pass name, fed by the invocation
	// spans of every request's pipeline run.
	passLatency sync.Map // string (pass name) → *histogram

	// verifyLatency is the translation-validation wall time per pass
	// invocation (requests with options.verify), fed by KindVerify
	// spans; verifyRefutations counts refuted invocations daemon-wide.
	verifyLatency     histogram
	verifyRefutations atomic.Int64

	queueRejects   atomic.Int64
	batchesTotal   atomic.Int64
	batchJobsTotal atomic.Int64
	// coalescedTotal counts requests (and archive units) that joined
	// another request's in-flight run instead of admitting their own.
	coalescedTotal atomic.Int64

	passMu    sync.Mutex
	passStats *pass.Stats // aggregated across all completed requests
}

func newMetrics() *metrics {
	return &metrics{
		latency:       newHistogram(latencyBuckets),
		queueWait:     newHistogram(latencyBuckets),
		verifyLatency: newHistogram(passLatencyBuckets),
		passStats:     pass.NewStats(),
	}
}

// latencyBuckets spans queueing plus pipeline execution: corpus-size
// units optimize in single-digit milliseconds, a saturated queue adds
// tens to hundreds more.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

func (m *metrics) observeRequest(code int, d time.Duration) {
	v, ok := m.requestsByCode.Load(code)
	if !ok {
		v, _ = m.requestsByCode.LoadOrStore(code, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
	m.latency.observe(d.Seconds())
}

// passLatencyBuckets span single-pass wall times: peepholes run in
// tens of microseconds, relaxing alignment passes in milliseconds.
var passLatencyBuckets = []float64{
	.000025, .0001, .00025, .001, .0025, .01, .025, .1, .25, 1,
}

// observePassSpans folds a request's span stream into the per-pass
// latency histograms (one observation per pass invocation).
func (m *metrics) observePassSpans(spans []trace.Span) {
	for _, sp := range spans {
		if sp.Kind == trace.KindVerify {
			m.verifyLatency.observe(sp.Dur.Seconds())
			continue
		}
		if sp.Kind != trace.KindInvocation {
			continue
		}
		v, ok := m.passLatency.Load(sp.Ref.Pass)
		if !ok {
			h := newHistogram(passLatencyBuckets)
			v, _ = m.passLatency.LoadOrStore(sp.Ref.Pass, &h)
		}
		v.(*histogram).observe(sp.Dur.Seconds())
	}
}

func (m *metrics) mergePassStats(s *pass.Stats) {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	m.passStats.Merge(s)
}

// histogram is a cumulative fixed-bucket histogram in the Prometheus
// sense: counts[i] counts observations ≤ buckets[i]; sum carries the
// total in float64 bits for atomic access.
type histogram struct {
	buckets []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) histogram {
	return histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets))}
}

func (h *histogram) observe(v float64) {
	for i, ub := range h.buckets {
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

// handleMetrics renders GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	writeMetric := func(help, typ, name string, pairs ...string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i := 0; i+1 < len(pairs); i += 2 {
			fmt.Fprintf(w, "%s%s %s\n", name, pairs[i], pairs[i+1])
		}
	}
	m := s.met

	// Request counters by status code, deterministically ordered.
	var codes []int
	m.requestsByCode.Range(func(k, _ any) bool { codes = append(codes, k.(int)); return true })
	sort.Ints(codes)
	var reqPairs []string
	for _, c := range codes {
		v, _ := m.requestsByCode.Load(c)
		reqPairs = append(reqPairs,
			fmt.Sprintf(`{code="%d"}`, c),
			strconv.FormatInt(v.(*atomic.Int64).Load(), 10))
	}
	writeMetric("HTTP requests completed, by status code.", "counter",
		"maod_requests_total", reqPairs...)

	// Latency histogram.
	fmt.Fprintf(w, "# HELP maod_request_duration_seconds HTTP request latency (all endpoints).\n")
	fmt.Fprintf(w, "# TYPE maod_request_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range m.latency.buckets {
		cum += m.latency.counts[i].Load()
		fmt.Fprintf(w, "maod_request_duration_seconds_bucket{le=\"%s\"} %d\n",
			strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	total := m.latency.count.Load()
	fmt.Fprintf(w, "maod_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", total)
	fmt.Fprintf(w, "maod_request_duration_seconds_sum %g\n",
		math.Float64frombits(m.latency.sumBits.Load()))
	fmt.Fprintf(w, "maod_request_duration_seconds_count %d\n", total)

	// Queue wait, split from service time (MAOSCOPE): how long
	// admitted requests sat before a worker picked them up.
	fmt.Fprintf(w, "# HELP maod_queue_wait_seconds Admission-to-pickup wait of executed requests.\n")
	fmt.Fprintf(w, "# TYPE maod_queue_wait_seconds histogram\n")
	qcum := int64(0)
	for i, ub := range m.queueWait.buckets {
		qcum += m.queueWait.counts[i].Load()
		fmt.Fprintf(w, "maod_queue_wait_seconds_bucket{le=\"%s\"} %d\n",
			strconv.FormatFloat(ub, 'g', -1, 64), qcum)
	}
	qtotal := m.queueWait.count.Load()
	fmt.Fprintf(w, "maod_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", qtotal)
	fmt.Fprintf(w, "maod_queue_wait_seconds_sum %g\n",
		math.Float64frombits(m.queueWait.sumBits.Load()))
	fmt.Fprintf(w, "maod_queue_wait_seconds_count %d\n", qtotal)

	// Per-pass latency histograms, one series set per pass name,
	// deterministically ordered.
	var passNames []string
	m.passLatency.Range(func(k, _ any) bool { passNames = append(passNames, k.(string)); return true })
	sort.Strings(passNames)
	fmt.Fprintf(w, "# HELP maod_pass_duration_seconds Wall time of one pass invocation, by pass (from pipeline spans).\n")
	fmt.Fprintf(w, "# TYPE maod_pass_duration_seconds histogram\n")
	for _, name := range passNames {
		v, _ := m.passLatency.Load(name)
		h := v.(*histogram)
		cum := int64(0)
		for i, ub := range h.buckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "maod_pass_duration_seconds_bucket{pass=%q,le=\"%s\"} %d\n",
				name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		n := h.count.Load()
		fmt.Fprintf(w, "maod_pass_duration_seconds_bucket{pass=%q,le=\"+Inf\"} %d\n", name, n)
		fmt.Fprintf(w, "maod_pass_duration_seconds_sum{pass=%q} %g\n",
			name, math.Float64frombits(h.sumBits.Load()))
		fmt.Fprintf(w, "maod_pass_duration_seconds_count{pass=%q} %d\n", name, n)
	}

	// Translation-validation latency (requests with options.verify;
	// one observation per validated pass invocation) and refutations.
	fmt.Fprintf(w, "# HELP maod_verify_duration_seconds Translation-validation wall time per pass invocation (options.verify).\n")
	fmt.Fprintf(w, "# TYPE maod_verify_duration_seconds histogram\n")
	vcum := int64(0)
	for i, ub := range m.verifyLatency.buckets {
		vcum += m.verifyLatency.counts[i].Load()
		fmt.Fprintf(w, "maod_verify_duration_seconds_bucket{le=\"%s\"} %d\n",
			strconv.FormatFloat(ub, 'g', -1, 64), vcum)
	}
	vtotal := m.verifyLatency.count.Load()
	fmt.Fprintf(w, "maod_verify_duration_seconds_bucket{le=\"+Inf\"} %d\n", vtotal)
	fmt.Fprintf(w, "maod_verify_duration_seconds_sum %g\n",
		math.Float64frombits(m.verifyLatency.sumBits.Load()))
	fmt.Fprintf(w, "maod_verify_duration_seconds_count %d\n", vtotal)
	writeMetric("Pass invocations refuted by the translation validator.", "counter",
		"maod_verify_refutations_total", "", strconv.FormatInt(m.verifyRefutations.Load(), 10))

	// Queue and worker-pool state.
	writeMetric("Requests admitted and waiting for a worker.", "gauge",
		"maod_queue_depth", "", strconv.FormatInt(s.queued.Load(), 10))
	writeMetric("Requests currently executing.", "gauge",
		"maod_inflight", "", strconv.FormatInt(s.inflight.Load(), 10))
	writeMetric("Requests rejected by admission control (429).", "counter",
		"maod_queue_rejects_total", "", strconv.FormatInt(m.queueRejects.Load(), 10))
	writeMetric("Batches dispatched to the worker pool.", "counter",
		"maod_batches_total", "", strconv.FormatInt(m.batchesTotal.Load(), 10))
	writeMetric("Jobs carried by dispatched batches (sum; divide by maod_batches_total for the mean batch size).", "counter",
		"maod_batch_jobs_total", "", strconv.FormatInt(m.batchJobsTotal.Load(), 10))

	// Result cache.
	writeMetric("Result-cache lookups served from cache.", "counter",
		"maod_result_cache_hits_total", "", strconv.FormatInt(s.results.hits.Load(), 10))
	writeMetric("Result-cache lookups that missed.", "counter",
		"maod_result_cache_misses_total", "", strconv.FormatInt(s.results.misses.Load(), 10))
	writeMetric("Result-cache entries evicted by the LRU cap.", "counter",
		"maod_result_cache_evictions_total", "", strconv.FormatInt(s.results.evictions.Load(), 10))
	writeMetric("Result-cache resident entries.", "gauge",
		"maod_result_cache_entries", "", strconv.Itoa(s.results.len()))

	// Pipeline memo (MAOMEMO): function-granular memoized pipeline
	// results shared across all requests.
	mm := s.memo.Metrics()
	writeMetric("Pipeline-memo function probes answered from the memo.", "counter",
		"maod_memo_hits_total", "", strconv.FormatUint(mm.Hits, 10))
	writeMetric("Pipeline-memo function probes that missed.", "counter",
		"maod_memo_misses_total", "", strconv.FormatUint(mm.Misses, 10))
	writeMetric("Pipeline-memo entries stored.", "counter",
		"maod_memo_stores_total", "", strconv.FormatUint(mm.Stores, 10))
	writeMetric("Pipeline-memo entries evicted by the LRU bound.", "counter",
		"maod_memo_evictions_total", "", strconv.FormatUint(mm.Evictions, 10))
	writeMetric("Pipeline-memo resident entries.", "gauge",
		"maod_memo_entries", "", strconv.Itoa(mm.Entries))
	writeMetric("Requests coalesced onto another request's in-flight identical run.", "counter",
		"maod_coalesced_total", "", strconv.FormatInt(m.coalescedTotal.Load(), 10))

	// Relaxation/encoding cache (the RELAXCACHE of pass.Stats),
	// daemon-wide cumulative.
	rh, rm := s.relaxCache.Counters()
	writeMetric("Encoding-cache (RELAXCACHE) hits.", "counter",
		"maod_relaxcache_hits_total", "", strconv.FormatInt(rh, 10))
	writeMetric("Encoding-cache (RELAXCACHE) misses.", "counter",
		"maod_relaxcache_misses_total", "", strconv.FormatInt(rm, 10))
	writeMetric("Encoding-cache entries evicted by the LRU caps.", "counter",
		"maod_relaxcache_evictions_total", "", strconv.FormatInt(s.relaxCache.Evictions(), 10))

	// Aggregated per-pass transformation counters.
	m.passMu.Lock()
	passMap := m.passStats.Map()
	m.passMu.Unlock()
	var passPairs []string
	var names []string
	for p := range passMap {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		var keys []string
		for k := range passMap[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			passPairs = append(passPairs,
				fmt.Sprintf(`{pass="%s",key="%s"}`, p, k),
				strconv.Itoa(passMap[p][k]))
		}
	}
	writeMetric("Per-pass transformation counters, aggregated over all completed requests.",
		"counter", "maod_pass_counters_total", passPairs...)

	// Per-client quotas (present only when Config.QuotaRate > 0).
	if s.quota != nil {
		perClient, clients := s.quota.snapshot()
		var ids []string
		for id := range perClient {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var grantPairs, rejectPairs []string
		for _, id := range ids {
			label := fmt.Sprintf(`{client=%q}`, id)
			grantPairs = append(grantPairs, label, strconv.FormatInt(perClient[id][0], 10))
			rejectPairs = append(rejectPairs, label, strconv.FormatInt(perClient[id][1], 10))
		}
		writeMetric("Requests granted a quota token, by client.", "counter",
			"maod_quota_granted_total", grantPairs...)
		writeMetric("Requests refused by the per-client quota (429), by client.", "counter",
			"maod_quota_rejects_total", rejectPairs...)
		writeMetric("Clients with a resident quota bucket.", "gauge",
			"maod_quota_clients", "", strconv.Itoa(clients))
	}

	writeMetric("Seconds since the server started.", "gauge",
		"maod_uptime_seconds", "", strconv.FormatFloat(time.Since(s.started).Seconds(), 'f', 3, 64))

	// Go runtime health (MAOSCOPE): goroutines, GC pauses, heap in use.
	scope.WriteRuntimeMetrics(w, "maod")
}
