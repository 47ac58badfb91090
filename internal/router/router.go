// Package router implements MAOROUTER, the shared-nothing shard
// router that scales maod out: a reverse proxy that computes the same
// content-addressed result-cache key the daemon uses
// (internal/cachekey — one derivation, golden-vector pinned, so router
// and daemon cannot drift) and consistent-hashes it onto N shard
// backends.
//
// Why hash on the cache key rather than round-robin: every shard can
// serve every request (the optimizer is deterministic and shards are
// shared-nothing), but each shard's result cache only holds what that
// shard has seen. Key-affinity routing sends every repeat of a
// request to the shard that already computed it, so fleet-wide cache
// hit rate approaches the single-daemon rate instead of being diluted
// by a factor of N — cmd/maoload's zipf mode measures exactly this
// concentration.
//
// The router only routes, fails over and splices its hop span into
// traced answers. The result cache, the coalescing of identical
// in-flight requests and admission are each shard's own, and the
// shard's X-Mao-Cache verdict ("hit", "miss" or "coalesced") is relayed
// as given: identical requests hash onto one shard, so that shard
// coalesces them.
//
// Failure handling: shards are health-checked via their /readyz
// (which flips to 503 the moment a shard starts draining) and marked
// passively on transport errors. A request whose shard is down — or
// dies before its answer is relayed — is retried once on the next
// shard in the key's ring preference order; maod requests are
// idempotent by construction (content-addressed, deterministic), so
// the retry is safe. Optimize answers are read whole before they are
// relayed, so a shard dying mid-body fails over too; everything else
// streams through with flush-per-chunk, so NDJSON archive streams stay
// incremental across the hop.
package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mao/internal/cachekey"
	"mao/internal/scope"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the backend base URLs (e.g. http://10.0.0.1:7950).
	// Required, at least one.
	Shards []string
	// VNodes is the virtual-node count per shard on the hash ring
	// (0 = 128).
	VNodes int
	// ProbeInterval is how often each shard's /readyz is polled
	// (0 = 1s; negative disables active probing — passive marking on
	// transport errors still applies).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (0 = 1s).
	ProbeTimeout time.Duration
	// MaxBodyBytes caps a proxied request body; bodies are buffered
	// for key computation and retry (0 = 64 MiB).
	MaxBodyBytes int64
	// Logf, when non-nil, receives shard health transitions.
	Logf func(format string, args ...any)
	// AccessLog, when non-nil, receives one JSON line per proxied
	// request (shard, cache verdict, trace ID, retries).
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// backend is one shard and its health/traffic state.
type backend struct {
	name string // the configured URL string, also the metrics label
	url  *url.URL

	mu      sync.Mutex
	healthy bool
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// Router is the shard router: construct with New, expose via
// Handler-style ServeHTTP, stop with Close.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backend
	client   *http.Client
	met      *routerMetrics
	flight   *scope.Recorder // the last scope.FlightRing /v1/* requests
	proxied  http.Handler    // proxy behind the request layer

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
	started   time.Time
}

// New builds a Router over cfg.Shards and starts the health prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: at least one shard is required")
	}
	names := make([]string, 0, len(cfg.Shards))
	backends := make([]*backend, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: invalid shard URL %q", s)
		}
		names = append(names, s)
		backends = append(backends, &backend{name: s, url: u, healthy: true})
	}
	r := &Router{
		cfg:      cfg,
		ring:     newRing(names, cfg.VNodes),
		backends: backends,
		// The transport's defaults are fine; requests carry their own
		// deadlines end to end, so no client-level timeout (it would
		// cut long archive streams short).
		client:    &http.Client{},
		met:       newRouterMetrics(names),
		flight:    scope.NewRecorder(scope.FlightRing),
		stopProbe: make(chan struct{}),
		started:   time.Now(),
	}
	layer := &scope.Layer{AccessLog: cfg.AccessLog, Flight: r.flight}
	r.proxied = layer.Wrap(http.HandlerFunc(r.proxy))
	if cfg.ProbeInterval > 0 {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health prober. In-flight proxied requests finish on
// their own (the caller owns the http.Server lifecycle).
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.stopProbe)
		r.probeWG.Wait()
	})
}

// setHealthy records a health observation, counting ring rebalances
// on transitions (a transition changes effective key ownership).
func (r *Router) setHealthy(b *backend, healthy bool, why string) {
	b.mu.Lock()
	changed := b.healthy != healthy
	b.healthy = healthy
	b.mu.Unlock()
	if changed {
		r.met.rebalances.Add(1)
		if r.cfg.Logf != nil {
			state := "healthy"
			if !healthy {
				state = "unhealthy"
			}
			r.cfg.Logf("shard %s marked %s (%s)", b.name, state, why)
		}
	}
}

// probeLoop polls every shard's /readyz. A draining or dead shard
// flips unhealthy within one interval and its keys spill clockwise;
// it rejoins the ring the moment /readyz answers 200 again.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopProbe:
			return
		case <-ticker.C:
			for _, b := range r.backends {
				r.probe(b)
			}
		}
	}
}

func (r *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", b.url.JoinPath("/readyz").String(), nil)
	resp, err := r.client.Do(req)
	if err != nil {
		r.setHealthy(b, false, "readyz probe failed: "+err.Error())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		r.setHealthy(b, true, "readyz ok")
	} else {
		r.setHealthy(b, false, fmt.Sprintf("readyz status %d", resp.StatusCode))
	}
}

// shardHeader names the shard that served a response; maoload's
// per-shard report reads it.
const shardHeader = "X-Mao-Shard"

// ServeHTTP serves the router's own endpoints (/healthz, /metrics)
// and proxies everything else to a shard. Only proxied requests pass
// through the request layer: they are the ones access-logged, and
// their /v1/* ones the ones flight-recorded.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.Method == "GET" && req.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case req.Method == "GET" && req.URL.Path == "/metrics":
		r.handleMetrics(w)
	default:
		r.proxied.ServeHTTP(w, req)
	}
}

// route reads a request's routing key and whether its answer carries
// a trace, decoding an optimize body once for both with the daemon's
// own decoder (cachekey.DecodeOptimizeRequest), under the daemon's
// Content-Type rule: every body that is not application/octet-stream
// is JSON.
//
// For such optimize requests the key is the daemon's own result-cache
// key — cachekey.Key over (name, source, spec, option flags), with the
// query spellings folded in by the daemon's own FoldQuery — so a
// repeat request hashes onto the shard whose cache holds its answer,
// and a trace asked for in either the query or the body is seen.
// Everything else (binary bodies the daemon decodes server-side,
// archives, malformed bodies the shard will 4xx) routes by a digest of
// the raw request: still deterministic — identical requests still
// concentrate — just not aligned with a decoded-form cache entry. Such
// a request is traced when its query asks.
func route(req *http.Request, body []byte) (key string, traced bool) {
	q := req.URL.Query()
	if req.URL.Path == "/v1/optimize" && cachekey.JSONBody(req.Header.Get("Content-Type")) {
		if o, err := cachekey.DecodeOptimizeRequest(body); err == nil && o.Source != "" && o.FoldQuery(q) == nil {
			return o.Key(), o.Options.Trace != ""
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s:%s:%s:%d:", req.Method, req.URL.Path, req.URL.RawQuery, len(body))
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil)), q.Get("trace") != ""
}

// proxy forwards req to the shard owning its routing key, retrying
// once on the next ring candidate if the owner is down, dies before
// its answer is relayed, or is draining (503). Each forward is one
// MAOSCOPE hop span: the shard receives the router's trace context
// (parented under the hop).
//
// An optimize answer is read whole before any of it is relayed: a
// shard dying mid-body then fails over like one dying before it
// answers, a traced answer gets the hop span spliced into its span
// tree, and the answer declares its Content-Length. Every other answer
// (archives above all) streams, committed at the shard's first answer.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	q := scope.From(req.Context())
	hop := hopSpan(q.Trace, q.ID)

	body, err := scope.ReadBody(w, req, r.cfg.MaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		q.Fail(w, status, fmt.Errorf("reading request body: %w", err))
		return
	}

	key, traced := route(req, body)
	buffered := req.Method == "POST" && req.URL.Path == "/v1/optimize"
	candidates := r.candidates(key)
	var lastErr error
	var failedOver string
	for attempt, b := range candidates {
		if attempt > 0 {
			r.met.retries.Add(1)
		}
		fwdStart := time.Now()
		resp, answer, err := r.forward(req, b, body, q.ID, q.Trace.Child(hop.SpanID), buffered)
		if err != nil {
			if req.Context().Err() != nil {
				// The client left: the shard is not at fault, and nobody
				// waits for a retry.
				q.Fail(w, http.StatusServiceUnavailable, errors.New("request abandoned before the answer arrived"))
				return
			}
			// Transport-level death before the answer is relayed: the
			// shard is gone or unreachable. Mark it and try the next
			// candidate; nothing was written to the client yet, so the
			// retry is invisible.
			r.setHealthy(b, false, "forward failed: "+err.Error())
			r.met.shard(b.name).errors.Add(1)
			lastErr, failedOver = err, b.name
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < len(candidates)-1 {
			// maod answers 503 exactly while draining: the shard is
			// shutting down but its listener is still up, so a probe
			// has not caught it yet. Nothing is committed to the
			// client — fail over exactly like a transport death, and
			// drains become hitless.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.setHealthy(b, false, "shard draining (503)")
			lastErr, failedOver = fmt.Errorf("shard %s answered 503 (draining)", b.name), b.name
			continue
		}
		r.met.shard(b.name).requests.Add(1)
		w.Header().Set(shardHeader, b.name)
		copyHeaders(w.Header(), resp.Header)
		q.Shard, q.Retries = b.name, attempt
		q.SetCache(w, resp.Header.Get(scope.CacheHeader))
		if buffered {
			if traced && resp.StatusCode == http.StatusOK {
				r.finishHop(&hop, start, b.name, attempt, failedOver, lastErr)
				answer = spliceTrace(answer, hop)
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
			w.WriteHeader(resp.StatusCode)
			w.Write(answer)
		} else {
			w.WriteHeader(resp.StatusCode)
			streamBody(w, resp.Body)
			resp.Body.Close()
		}
		r.met.shard(b.name).latency.Observe(time.Since(fwdStart).Seconds())
		return
	}
	r.met.unrouted.Add(1)
	w.Header().Set("Retry-After", "1")
	q.Retries = len(candidates) - 1
	q.Fail(w, http.StatusBadGateway, fmt.Errorf("no shard reachable: %w", lastErr))
}

// candidates returns the shards to try for key: healthy shards in ring
// preference order, cut to one forward plus at most one retry — enough
// to survive a single dead shard without doubling load under a
// systemic outage. If every shard looks down, the primary is tried
// anyway: passive marks can be stale, and an honest 502 beats a
// guessed 503.
func (r *Router) candidates(key string) []*backend {
	seq := r.ring.seq(key)
	var out []*backend
	for _, idx := range seq {
		if b := r.backends[idx]; b.isHealthy() {
			out = append(out, b)
			if len(out) == 2 {
				break
			}
		}
	}
	if len(out) == 0 {
		out = []*backend{r.backends[seq[0]]}
	}
	return out
}

// forward sends one copy of the request to b on the client's context:
// a client that disconnects or times out cancels the hop too, and the
// shard's last-waiter rule then cancels its run. The shard sees the
// router's trace context — the hop span as parent — so its span tree
// stitches under the hop. A buffered forward reads the answer's body
// whole into answer (resp.Body is then empty), so a shard dying
// mid-body is an error like one dying before it answers.
func (r *Router) forward(req *http.Request, b *backend, body []byte, rid string, tc scope.Context, buffered bool) (resp *http.Response, answer []byte, err error) {
	target := *b.url
	target.Path = strings.TrimSuffix(target.Path, "/") + req.URL.Path
	target.RawQuery = req.URL.RawQuery
	out, err := http.NewRequestWithContext(req.Context(), req.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	out.Header = req.Header.Clone()
	out.Header.Set(scope.RequestIDHeader, rid)
	out.Header.Set(scope.TraceHeader, tc.Header())
	resp, err = r.client.Do(out)
	if err != nil || !buffered {
		return resp, nil, err
	}
	answer, err = scope.ReadAll(resp.Body, resp.ContentLength)
	resp.Body.Close()
	resp.Body = http.NoBody
	return resp, answer, err
}

// copyHeaders copies the shard's response headers, leaving the
// router's own (X-Request-ID, X-Mao-Shard, X-Mao-Trace) in place.
// X-Mao-Trace is router-owned because the shard echoes the re-parented
// context it received (hop span as parent); the client must see the
// context it sent (or the one the router originated). Comparison is
// against canonical keys — http.Header stores "X-Request-Id", not
// the constant's spelling.
var routerOwnedHeaders = map[string]bool{
	http.CanonicalHeaderKey(scope.RequestIDHeader): true,
	http.CanonicalHeaderKey(shardHeader):           true,
	http.CanonicalHeaderKey(scope.TraceHeader):     true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if routerOwnedHeaders[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// streamBody copies resp body to the client flushing after every
// chunk, so NDJSON archive records cross the router as they arrive
// instead of pooling in a proxy buffer.
func streamBody(w http.ResponseWriter, body io.Reader) {
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// Healthy reports how many shards are currently marked healthy.
func (r *Router) Healthy() int {
	n := 0
	for _, b := range r.backends {
		if b.isHealthy() {
			n++
		}
	}
	return n
}
