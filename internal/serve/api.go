package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mao/internal/check"
	"mao/internal/flight"
	"mao/internal/pass"
	"mao/internal/scope"
	"mao/internal/trace"
	"mao/internal/x86/decode"
)

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	// Name is the unit name used in diagnostics ("request.s" when
	// empty). It appears in Diag.File and in error messages.
	Name string `json:"name,omitempty"`
	// Source is the AT&T-syntax assembly to optimize. Required.
	Source string `json:"source"`
	// Spec is the ':'-separated pass pipeline, e.g. "REDTEST:REDMOV"
	// (mao --mao= syntax). Empty runs no passes: the unit is parsed
	// and re-emitted canonically. The ASM pass and the dump_before /
	// dump_after standard options are rejected — they write files on
	// the server; the service returns assembly in the response.
	Spec string `json:"spec,omitempty"`
	// Options tune this request.
	Options OptimizeOptions `json:"options,omitempty"`
}

// OptimizeOptions are the per-request knobs.
type OptimizeOptions struct {
	// Check runs the static verification catalog over the optimized
	// unit and returns the diagnostics.
	Check bool `json:"check,omitempty"`
	// DeadlineMS overrides the server's default request deadline,
	// capped at the server's maximum. The deadline covers queueing
	// and execution.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the result cache for this request (the fresh
	// result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
	// Explain returns per-instruction lineage (origin and last-mutator
	// pass of every node) alongside the optimized assembly. Also
	// settable as the explain=1 query parameter.
	Explain bool `json:"explain,omitempty"`
	// Verify translation-validates every pass invocation of the
	// pipeline (see mao/internal/verify): the response carries one
	// verdict per invocation, and any refutation appears in Diags with
	// rule verify-equiv. Also settable as the verify=1 query parameter.
	Verify bool `json:"verify,omitempty"`
	// Trace returns the request's distributed span tree: "spans"
	// (?trace=1) attaches the stitched cross-process spans, "chrome"
	// (?trace=chrome) additionally renders Chrome trace events. Trace
	// requests bypass the result-cache lookup — spans describe one
	// execution, not the content-addressed result — but the trace-free
	// result is still cached. Deliberately not part of the cache key.
	Trace string `json:"trace,omitempty"`
}

// VerifyVerdict is one pass invocation's translation-validation
// outcome, present when options.verify was set.
type VerifyVerdict struct {
	Pass  string `json:"pass"`
	Index int    `json:"index"`
	// Statuses counts the per-function outcomes: proved, concrete,
	// refuted, inconclusive.
	Statuses map[string]int `json:"statuses"`
	// Refuted names the functions proven not observationally
	// equivalent (empty = the invocation validated clean).
	Refuted []string `json:"refuted,omitempty"`
	// DurMS is the verification wall time for this invocation.
	DurMS float64 `json:"dur_ms"`
}

func (r *OptimizeRequest) unitName() string {
	if r.Name == "" {
		return "request.s"
	}
	return r.Name
}

// OptimizeResponse is the body of a successful optimization.
type OptimizeResponse struct {
	// Assembly is the optimized unit, byte-identical to what cmd/mao
	// emits for the same source and spec.
	Assembly string `json:"assembly"`
	// Stats are the per-pass transformation counters (pass → key →
	// count), including the RELAXCACHE pseudo-pass.
	Stats map[string]map[string]int `json:"stats,omitempty"`
	// Diags carries the static-checker diagnostics when
	// options.check was set (empty slice = checked, clean).
	Diags []check.Diag `json:"diags,omitempty"`
	// Cached reports that the response was served from the result
	// cache without running a pipeline.
	Cached bool `json:"cached"`
	// Lineage is the per-instruction provenance of the optimized unit,
	// present when options.explain (or ?explain=1) was set.
	Lineage []trace.InstLineage `json:"lineage,omitempty"`
	// Verify carries one translation-validation verdict per pass
	// invocation, in pipeline order, when options.verify (or
	// ?verify=1) was set. Refutations additionally surface in Diags.
	Verify []VerifyVerdict `json:"verify,omitempty"`
	// Trace is the stitched distributed span tree of this execution
	// (queue → batch → pipeline → invocation → function → verify,
	// parented under the inbound X-Mao-Trace context), present when
	// options.trace (or ?trace=1) was set. Span IDs are derived
	// deterministically, so the tree is byte-identical at any worker
	// count modulo recorded wall times.
	Trace []scope.Span `json:"trace,omitempty"`
	// TraceChrome is the same tree as Chrome trace events
	// (?trace=chrome), loadable in chrome://tracing and Perfetto.
	TraceChrome []scope.ChromeEvent `json:"trace_chrome,omitempty"`
}

// Handler returns the service's HTTP handler:
//
//	POST /v1/optimize          optimize one unit
//	POST /v1/optimize/archive  optimize a multi-unit archive, streaming
//	                           one NDJSON record per unit as it finishes
//	GET  /metrics              Prometheus text-format metrics
//	GET  /healthz              liveness (200 while the process runs)
//	GET  /readyz               readiness (503 once draining)
//
// Every request goes through one scope.Layer, which resolves its
// request ID, trace context and client, and projects its record into
// the access log (Config.AccessLog), the request metrics and, for
// /v1/* requests, the flight recorder.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/optimize/archive", s.handleArchive)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	layer := &scope.Layer{AccessLog: s.cfg.AccessLog, Flight: s.flight, Observe: s.met.observeRequest}
	return layer.Wrap(mux)
}

// DebugHandler returns the debug plane served on maod's opt-in debug
// listener (-debug-addr): pprof and the flight recorder's views. The
// main handler serves nothing under /debug/, which the tests pin.
func (s *Server) DebugHandler() http.Handler { return scope.DebugHandler("maod", s.flight) }

// handleOptimize is POST /v1/optimize: check the client's quota,
// validate, consult the result cache, admit into the queue, and wait
// for the worker's answer (or the request deadline).
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// The per-client quota gates everything, including cache hits: it
	// is a request-rate bound, and a 429 here consumes no global queue
	// slot — tenant isolation sits UNDER the shared admission control.
	q := scope.From(r.Context())
	if ok, retryAfter := s.quota.take(q.Client); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		q.Fail(w, http.StatusTooManyRequests, errors.New("client quota exhausted"))
		return
	}
	req, status, err := s.decodeRequest(w, r)
	if err != nil {
		q.Fail(w, status, err)
		return
	}

	key := resultKey(req)
	// no_cache and ?trace requests neither read the cache nor share a
	// run: the first asked for a fresh run, the second needs its own
	// span tree (a cached or shared answer has none to offer). Their
	// fresh (trace-free) result is still stored, so tracing never
	// degrades the cache for other callers.
	shared := shareable(req)
	if shared {
		if resp, ok := s.results.get(key); ok {
			cached := *resp
			cached.Cached = true
			q.SetCache(w, "hit")
			writeJSON(w, http.StatusOK, &cached)
			return
		}
	}
	// In-flight miss coalescing: identical misses share one pipeline
	// run. Followers consume no queue slot and answer the moment the
	// leader's run lands.
	c, leader := s.call(key, shared)
	verdict := "miss"
	if !leader {
		verdict = "coalesced"
		s.met.coalescedTotal.Add(1)
	}
	q.SetCache(w, verdict)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req))
	defer cancel()

	if leader {
		j := s.leaderJob(c, r.Context(), req, key)
		if ok, retryAfter := s.admit(j); !ok {
			// The leader publishes on every path — a refusal becomes the
			// shared result, so no waiter ever hangs on a run that never
			// started.
			if retryAfter > 0 {
				c.Publish(jobResult{status: http.StatusTooManyRequests, err: errors.New("optimization queue is full")})
			} else {
				c.Publish(jobResult{status: http.StatusServiceUnavailable, err: errors.New("server is draining")})
			}
		} else {
			// The publisher outlives this handler. Close drains every
			// admitted job — j.done always receives exactly once — so
			// every waiter gets a result or a clean error even when the
			// server shuts down mid-flight.
			go func() { c.Publish(<-j.done) }()
		}
	}

	res, err := c.Wait(ctx)
	if err != nil {
		// Deadline expired (or client went away) while the run was still
		// queued or running; the last waiter out canceled it.
		q.Fail(w, statusForCtx(err), fmt.Errorf("request abandoned: %w", err))
		return
	}
	q.QueueNS, q.Spans = res.queueNS, res.spans
	if res.err != nil {
		if res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		q.Fail(w, res.status, res.err)
		return
	}
	resp := res.resp
	if mode := req.Options.Trace; mode != "" {
		resp = traceResponse(resp, res.spans, q.Trace, key, mode)
	}
	writeJSON(w, http.StatusOK, resp)
}

// shareable reports whether a request may be answered from the result
// cache or from another request's run.
func shareable(req *OptimizeRequest) bool {
	return !req.Options.NoCache && req.Options.Trace == ""
}

// call joins key's in-flight run when the request may share one;
// otherwise it takes an unjoinable call, which this request leads.
func (s *Server) call(key string, shared bool) (c *flight.Call[jobResult], leader bool) {
	if shared {
		return s.flights.Join(key)
	}
	return s.flights.Solo(), true
}

// leaderJob builds the job that runs call c. The run is detached from
// the leader's request — followers may outlive it — but bounded by the
// same deadline; the last waiter to leave cancels it. WithoutCancel
// keeps the request record, whose ID stamps the spans.
func (s *Server) leaderJob(c *flight.Call[jobResult], parent context.Context, req *OptimizeRequest, key string) *job {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(parent), s.deadlineFor(req))
	c.SetCancel(cancel)
	col := trace.NewCollector()
	col.TraceID = scope.From(ctx).ID
	return &job{req: req, key: key, ctx: ctx, done: make(chan jobResult, 1),
		col: col, admitted: col.Now()}
}

// decodeRequest reads, parses and validates the request body. The
// returned status classifies the failure (413 oversize, 422 a binary
// body that does not decode, 400 anything else malformed). A body of
// Content-Type application/octet-stream is raw x86-64 machine code:
// it is decoded and lifted to assembly here, so the rest of the
// service — including the result-cache key — operates on the decoded
// form.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		return s.decodeBinaryRequest(w, r)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	if req.Source == "" {
		return nil, http.StatusBadRequest, errors.New("source is required")
	}
	if status, err := s.validateRequest(r, &req); err != nil {
		return nil, status, err
	}
	return &req, 0, nil
}

// decodeBinaryRequest handles the octet-stream form of /v1/optimize:
// the body is a raw .text blob, the request knobs ride in query
// parameters (name, spec, base, check, explain, verify, no_cache,
// deadline_ms). The blob is decoded and lifted immediately; the
// resulting assembly becomes the request Source, so binary requests
// share the JSON path's pipeline, queue and result cache — two
// blobs that decode to the same unit under the same spec share a
// cache entry.
func (s *Server) decodeBinaryRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	}
	if len(raw) == 0 {
		return nil, http.StatusBadRequest, errors.New("machine-code body is required")
	}
	q := r.URL.Query()
	req := OptimizeRequest{Name: q.Get("name"), Spec: q.Get("spec")}
	if req.Name == "" {
		req.Name = "request.bin"
	}
	var base int64
	if v := q.Get("base"); v != "" {
		if base, err = strconv.ParseInt(v, 0, 64); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("invalid base %q", v)
		}
	}
	u, err := decode.ToUnit(raw, decode.UnitOptions{FileName: req.Name, Base: base})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	req.Source = u.String()
	for _, p := range []struct {
		name string
		dst  *bool
	}{{"check", &req.Options.Check}, {"no_cache", &req.Options.NoCache}} {
		if v := q.Get(p.name); v == "1" || v == "true" {
			*p.dst = true
		}
	}
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("invalid deadline_ms %q", v)
		}
		req.Options.DeadlineMS = ms
	}
	if status, err := s.validateRequest(r, &req); err != nil {
		return nil, status, err
	}
	return &req, 0, nil
}

// validateRequest applies the path-independent request checks: the
// pipeline spec, the deadline, and the query-parameter spellings of
// the explain/verify options.
func (s *Server) validateRequest(r *http.Request, req *OptimizeRequest) (int, error) {
	invs, err := pass.ParsePipeline(req.Spec)
	if err != nil {
		return http.StatusBadRequest, err
	}
	for _, inv := range invs {
		if inv.Pass.Name() == "ASM" {
			return http.StatusBadRequest,
				errors.New("the ASM pass is CLI-only: the service returns assembly in the response body")
		}
		for _, opt := range []string{"dump_before", "dump_after"} {
			if inv.Opts.String(opt, "\x00") != "\x00" {
				return http.StatusBadRequest,
					fmt.Errorf("the %s option is CLI-only (it writes files on the server)", opt)
			}
		}
	}
	if req.Options.DeadlineMS < 0 {
		return http.StatusBadRequest, errors.New("deadline_ms must be >= 0")
	}
	// ?explain=1, ?verify=1 and ?trace=1|chrome are the curl-friendly
	// spellings of the corresponding body options.
	if v := r.URL.Query().Get("explain"); v == "1" || v == "true" {
		req.Options.Explain = true
	}
	if v := r.URL.Query().Get("verify"); v == "1" || v == "true" {
		req.Options.Verify = true
	}
	if v := r.URL.Query().Get("trace"); v != "" {
		mode, ok := parseTraceMode(v)
		if !ok {
			return http.StatusBadRequest, fmt.Errorf("invalid trace mode %q (want 1 or chrome)", v)
		}
		req.Options.Trace = mode
	}
	switch req.Options.Trace {
	case "", scope.TraceSpans, scope.TraceChrome:
	default:
		return http.StatusBadRequest,
			fmt.Errorf("invalid options.trace %q (want %q or %q)", req.Options.Trace, scope.TraceSpans, scope.TraceChrome)
	}
	return 0, nil
}

// deadlineFor resolves the effective deadline of a request.
func (s *Server) deadlineFor(req *OptimizeRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.Options.DeadlineMS > 0 {
		d = time.Duration(req.Options.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // the status is already committed; encode errors only surface as a truncated body
}
