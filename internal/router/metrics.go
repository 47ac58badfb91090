package router

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mao/internal/scope"
)

// routerMetrics is the router's observability plane, rendered in
// Prometheus text exposition format on its own /metrics — same
// hand-rolled, stdlib-only approach as maod's. Per-shard series are
// keyed by the configured shard URL.
type routerMetrics struct {
	order  []string // shard names in configured order (stable exposition)
	shards map[string]*shardMetrics

	retries    atomic.Int64 // forwards retried on a failover candidate
	rebalances atomic.Int64 // shard health transitions (ownership moved)
	unrouted   atomic.Int64 // requests refused: no shard reachable
	coalesced  atomic.Int64 // requests that rode another request's forward
}

type shardMetrics struct {
	requests atomic.Int64 // responses relayed from this shard
	errors   atomic.Int64 // forwards that died at the transport layer
	latency  histogram    // forward round-trip, first byte to last
}

// latencyBuckets mirror maod's request buckets: the router adds
// sub-millisecond overhead on top of shard-side queueing + pipeline.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

func newRouterMetrics(names []string) *routerMetrics {
	m := &routerMetrics{order: names, shards: make(map[string]*shardMetrics, len(names))}
	for _, n := range names {
		m.shards[n] = &shardMetrics{latency: newHistogram(latencyBuckets)}
	}
	return m
}

// shard returns the metrics bundle for a shard name. Names come from
// the router's own backend list, so the lookup cannot miss.
func (m *routerMetrics) shard(name string) *shardMetrics {
	return m.shards[name]
}

// histogram is a cumulative fixed-bucket histogram (counts[i] counts
// observations ≤ buckets[i]); a local copy of maod's unexported one.
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
func (r *Router) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := r.met

	writeMetric := func(help, typ, name string, pairs ...string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i := 0; i+1 < len(pairs); i += 2 {
			fmt.Fprintf(w, "%s%s %s\n", name, pairs[i], pairs[i+1])
		}
	}

	var reqPairs, errPairs, healthPairs []string
	for _, name := range m.order {
		label := "{shard=" + scope.PromQuote(name) + "}"
		reqPairs = append(reqPairs, label, strconv.FormatInt(m.shards[name].requests.Load(), 10))
		errPairs = append(errPairs, label, strconv.FormatInt(m.shards[name].errors.Load(), 10))
	}
	for _, b := range r.backends {
		h := "0"
		if b.isHealthy() {
			h = "1"
		}
		healthPairs = append(healthPairs, "{shard="+scope.PromQuote(b.name)+"}", h)
	}
	writeMetric("Responses relayed, by shard.", "counter",
		"maorouter_requests_total", reqPairs...)
	writeMetric("Forwards that failed at the transport layer, by shard.", "counter",
		"maorouter_errors_total", errPairs...)
	writeMetric("Shard passes its /readyz probe (1) or is marked down (0).", "gauge",
		"maorouter_shard_healthy", healthPairs...)

	// Per-shard forward latency histograms.
	fmt.Fprintf(w, "# HELP maorouter_request_duration_seconds Forward round-trip latency, by shard.\n")
	fmt.Fprintf(w, "# TYPE maorouter_request_duration_seconds histogram\n")
	for _, name := range m.order {
		h := &m.shards[name].latency
		shard := scope.PromQuote(name)
		cum := int64(0)
		for i, ub := range h.buckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "maorouter_request_duration_seconds_bucket{shard=%s,le=\"%s\"} %d\n",
				shard, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		n := h.count.Load()
		fmt.Fprintf(w, "maorouter_request_duration_seconds_bucket{shard=%s,le=\"+Inf\"} %d\n", shard, n)
		fmt.Fprintf(w, "maorouter_request_duration_seconds_sum{shard=%s} %g\n",
			shard, math.Float64frombits(h.sumBits.Load()))
		fmt.Fprintf(w, "maorouter_request_duration_seconds_count{shard=%s} %d\n", shard, n)
	}

	writeMetric("Forwards retried on a failover shard.", "counter",
		"maorouter_retries_total", "", strconv.FormatInt(m.retries.Load(), 10))
	writeMetric("Shard health transitions (each moves ring key ownership).", "counter",
		"maorouter_rebalances_total", "", strconv.FormatInt(m.rebalances.Load(), 10))
	writeMetric("Requests refused because no shard was reachable (502).", "counter",
		"maorouter_no_shard_total", "", strconv.FormatInt(m.unrouted.Load(), 10))
	writeMetric("Requests that coalesced onto another in-flight identical forward.", "counter",
		"maorouter_coalesced_total", "", strconv.FormatInt(m.coalesced.Load(), 10))
	writeMetric("Seconds since the router started.", "gauge",
		"maorouter_uptime_seconds", "", strconv.FormatFloat(time.Since(r.started).Seconds(), 'f', 3, 64))

	// Go runtime health: goroutine count, heap in use, GC pause
	// distribution — the signals that say "the router itself is sick"
	// when per-shard numbers look fine.
	scope.WriteRuntimeMetrics(w, "maorouter")
}
