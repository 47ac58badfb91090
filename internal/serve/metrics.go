package serve

import (
	"fmt"
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
// fixed-bucket histograms (scope.Histogram), rendered in Prometheus
// text exposition format on /metrics. No third-party client library —
// the format is a few lines of text, and the daemon stays stdlib-only.
type metrics struct {
	requestsByCode sync.Map // int (status code) → *atomic.Int64
	latency        *scope.Histogram

	// queueWait is the admission-to-pickup wait, split out from the
	// request latency so queueing pressure is visible separately from
	// service time (one observation per executed job; cache hits never
	// queue and are absent).
	queueWait *scope.Histogram

	// passLatency histograms per pass name, fed by the invocation
	// spans of every request's pipeline run.
	passLatency sync.Map // string (pass name) → *scope.Histogram

	// verifyLatency is the translation-validation wall time per pass
	// invocation (requests with options.verify), fed by KindVerify
	// spans; verifyRefutations counts refuted invocations daemon-wide.
	verifyLatency     *scope.Histogram
	verifyRefutations atomic.Int64

	queueRejects atomic.Int64
	// jobsPickedUp counts admitted jobs a worker picked up. It backs
	// both maod_batches_total and maod_batch_jobs_total, kept under
	// their names for the dashboards and benchmarks that read them:
	// each job is its own one-job batch.
	jobsPickedUp atomic.Int64
	// coalescedTotal counts requests (and archive units) that joined
	// another request's in-flight run instead of admitting their own.
	coalescedTotal atomic.Int64

	passMu    sync.Mutex
	passStats *pass.Stats // aggregated across all completed requests
}

func newMetrics() *metrics {
	return &metrics{
		latency:       scope.NewHistogram(scope.LatencyBuckets),
		queueWait:     scope.NewHistogram(scope.LatencyBuckets),
		verifyLatency: scope.NewHistogram(passLatencyBuckets),
		passStats:     pass.NewStats(),
	}
}

func (m *metrics) observeRequest(code int, d time.Duration) {
	v, ok := m.requestsByCode.Load(code)
	if !ok {
		v, _ = m.requestsByCode.LoadOrStore(code, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
	m.latency.Observe(d.Seconds())
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
			m.verifyLatency.Observe(sp.Dur.Seconds())
			continue
		}
		if sp.Kind != trace.KindInvocation {
			continue
		}
		v, ok := m.passLatency.Load(sp.Ref.Pass)
		if !ok {
			v, _ = m.passLatency.LoadOrStore(sp.Ref.Pass, scope.NewHistogram(passLatencyBuckets))
		}
		v.(*scope.Histogram).Observe(sp.Dur.Seconds())
	}
}

func (m *metrics) mergePassStats(s *pass.Stats) {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	m.passStats.Merge(s)
}

// handleMetrics renders GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
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
	scope.WriteMetric(w, "HTTP requests completed, by status code.", "counter",
		"maod_requests_total", reqPairs...)
	scope.WriteHistogram(w, "HTTP request latency (all endpoints).", "maod_request_duration_seconds", m.latency)
	// Queue wait, split from service time (MAOSCOPE): how long
	// admitted requests sat before a worker picked them up.
	scope.WriteHistogram(w, "Admission-to-pickup wait of executed requests.", "maod_queue_wait_seconds", m.queueWait)

	// Per-pass latency histograms, one series set per pass name,
	// deterministically ordered.
	var passNames []string
	m.passLatency.Range(func(k, _ any) bool { passNames = append(passNames, k.(string)); return true })
	sort.Strings(passNames)
	scope.WriteMetric(w, "Wall time of one pass invocation, by pass (from pipeline spans).", "histogram",
		"maod_pass_duration_seconds")
	for _, name := range passNames {
		v, _ := m.passLatency.Load(name)
		v.(*scope.Histogram).Write(w, "maod_pass_duration_seconds", "pass="+scope.PromQuote(name))
	}

	// Translation-validation latency (requests with options.verify;
	// one observation per validated pass invocation) and refutations.
	scope.WriteHistogram(w, "Translation-validation wall time per pass invocation (options.verify).",
		"maod_verify_duration_seconds", m.verifyLatency)
	scope.WriteMetric(w, "Pass invocations refuted by the translation validator.", "counter",
		"maod_verify_refutations_total", "", strconv.FormatInt(m.verifyRefutations.Load(), 10))

	// Queue and worker-pool state.
	scope.WriteMetric(w, "Requests admitted and waiting for a worker.", "gauge",
		"maod_queue_depth", "", strconv.FormatInt(s.queued.Load(), 10))
	scope.WriteMetric(w, "Requests currently executing.", "gauge",
		"maod_inflight", "", strconv.FormatInt(s.inflight.Load(), 10))
	scope.WriteMetric(w, "Requests rejected by admission control (429).", "counter",
		"maod_queue_rejects_total", "", strconv.FormatInt(m.queueRejects.Load(), 10))
	picked := strconv.FormatInt(m.jobsPickedUp.Load(), 10)
	scope.WriteMetric(w, "Jobs picked up by a worker (each job runs as its own batch; equals maod_batch_jobs_total).", "counter",
		"maod_batches_total", "", picked)
	scope.WriteMetric(w, "Jobs picked up by a worker.", "counter",
		"maod_batch_jobs_total", "", picked)

	// Result cache.
	scope.WriteMetric(w, "Result-cache lookups served from cache.", "counter",
		"maod_result_cache_hits_total", "", strconv.FormatInt(s.results.hits.Load(), 10))
	scope.WriteMetric(w, "Result-cache lookups that missed.", "counter",
		"maod_result_cache_misses_total", "", strconv.FormatInt(s.results.misses.Load(), 10))
	scope.WriteMetric(w, "Result-cache entries evicted by the LRU cap.", "counter",
		"maod_result_cache_evictions_total", "", strconv.FormatInt(s.results.evictions.Load(), 10))
	scope.WriteMetric(w, "Result-cache resident entries.", "gauge",
		"maod_result_cache_entries", "", strconv.Itoa(s.results.len()))

	// Pipeline memo (MAOMEMO): function-granular memoized pipeline
	// results shared across all requests.
	mm := s.memo.Metrics()
	scope.WriteMetric(w, "Pipeline-memo function probes answered from the memo.", "counter",
		"maod_memo_hits_total", "", strconv.FormatUint(mm.Hits, 10))
	scope.WriteMetric(w, "Pipeline-memo function probes that missed.", "counter",
		"maod_memo_misses_total", "", strconv.FormatUint(mm.Misses, 10))
	scope.WriteMetric(w, "Pipeline-memo entries stored.", "counter",
		"maod_memo_stores_total", "", strconv.FormatUint(mm.Stores, 10))
	scope.WriteMetric(w, "Pipeline-memo entries evicted by the LRU bound.", "counter",
		"maod_memo_evictions_total", "", strconv.FormatUint(mm.Evictions, 10))
	scope.WriteMetric(w, "Pipeline-memo resident entries.", "gauge",
		"maod_memo_entries", "", strconv.Itoa(mm.Entries))
	scope.WriteMetric(w, "Requests coalesced onto another request's in-flight identical run.", "counter",
		"maod_coalesced_total", "", strconv.FormatInt(m.coalescedTotal.Load(), 10))

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
				fmt.Sprintf(`{pass=%s,key=%s}`, scope.PromQuote(p), scope.PromQuote(k)),
				strconv.Itoa(passMap[p][k]))
		}
	}
	scope.WriteMetric(w, "Per-pass transformation counters, aggregated over all completed requests.",
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
			label := "{client=" + scope.PromQuote(id) + "}"
			grantPairs = append(grantPairs, label, strconv.FormatInt(perClient[id][0], 10))
			rejectPairs = append(rejectPairs, label, strconv.FormatInt(perClient[id][1], 10))
		}
		scope.WriteMetric(w, "Requests granted a quota token, by client.", "counter",
			"maod_quota_granted_total", grantPairs...)
		scope.WriteMetric(w, "Requests refused by the per-client quota (429), by client.", "counter",
			"maod_quota_rejects_total", rejectPairs...)
		scope.WriteMetric(w, "Clients with a resident quota bucket.", "gauge",
			"maod_quota_clients", "", strconv.Itoa(clients))
	}

	scope.WriteMetric(w, "Seconds since the server started.", "gauge",
		"maod_uptime_seconds", "", strconv.FormatFloat(time.Since(s.started).Seconds(), 'f', 3, 64))

	// Go runtime health (MAOSCOPE): goroutines, GC pauses, heap in use.
	scope.WriteRuntimeMetrics(w, "maod")
}
