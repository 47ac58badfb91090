package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"mao/internal/cachekey"
	"mao/internal/check"
	"mao/internal/flight"
	"mao/internal/pass"
	"mao/internal/scope"
	"mao/internal/trace"
	"mao/internal/x86/decode"
)

// OptimizeRequest is the body of POST /v1/optimize and OptimizeOptions
// its per-request knobs. Both live in internal/cachekey, with the one
// decoder the daemon and the router share.
type (
	OptimizeRequest = cachekey.OptimizeRequest
	OptimizeOptions = cachekey.OptimizeOptions
)

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

// OptimizeResponse is the body of a successful optimization.
type OptimizeResponse struct {
	// Assembly is the optimized unit, byte-identical to what cmd/mao
	// emits for the same source and spec.
	Assembly string `json:"assembly"`
	// Stats are the per-pass transformation counters (pass → key →
	// count).
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

	key := req.Key()
	// no_cache and ?trace requests neither read the cache nor share a
	// run: the first asked for a fresh run, the second needs its own
	// span tree (a cached or shared answer has none to offer). Their
	// fresh (trace-free) result is still stored, so tracing never
	// degrades the cache for other callers.
	shared := shareable(req)
	if shared {
		if e, ok := s.results.get(key); ok {
			q.SetCache(w, "hit")
			body, err := e.hitBody()
			writeBody(w, http.StatusOK, body, err)
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
		// The leader publishes on every path. An admitted job's worker
		// publishes into c, and Close runs every admitted job, so every
		// waiter gets a result or a clean error even when the server
		// shuts down mid-flight; a refusal becomes the shared result, so
		// no waiter ever hangs on a run that never started.
		j := s.leaderJob(c, r.Context(), req, key)
		if ok, retryAfter := s.admit(j); !ok {
			if retryAfter > 0 {
				c.Publish(jobResult{status: http.StatusTooManyRequests, err: errors.New("optimization queue is full")})
			} else {
				c.Publish(jobResult{status: http.StatusServiceUnavailable, err: errors.New("server is draining")})
			}
		}
	}

	res, err := c.Wait(ctx)
	if err != nil {
		// Deadline expired (or client went away) while the run was still
		// queued or running; the last waiter out canceled it.
		q.Fail(w, statusForCtx(err), fmt.Errorf("request abandoned: %w", err))
		return
	}
	q.Spans = res.spans
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

// leaderJob builds the job that runs call c and publishes its result
// into c. The run is detached from the leader's request — followers
// may outlive it — but bounded by the same deadline; the last waiter to
// leave cancels it. WithoutCancel keeps the request record, whose ID
// stamps the spans.
func (s *Server) leaderJob(c *flight.Call[jobResult], parent context.Context, req *OptimizeRequest, key string) *job {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(parent), s.deadlineFor(req))
	c.SetCancel(cancel)
	col := trace.NewCollector()
	col.TraceID = scope.From(ctx).ID
	return &job{req: req, key: key, ctx: ctx, call: c, col: col, admitted: col.Now()}
}

// decodeRequest reads, parses and validates the request body. The
// returned status classifies the failure (413 oversize, 422 a binary
// body that does not decode, 400 anything else malformed). A body of
// Content-Type application/octet-stream is raw x86-64 machine code:
// it is decoded and lifted to assembly here, so the rest of the
// service — including the result-cache key — operates on the decoded
// form. Every other body is a JSON OptimizeRequest, read whole and
// decoded in one pass by the decoder the router shares.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	if !cachekey.JSONBody(r.Header.Get("Content-Type")) {
		return s.decodeBinaryRequest(w, r)
	}
	body, status, err := s.readBody(w, r, "invalid request body")
	if err != nil {
		return nil, status, err
	}
	req, err := cachekey.DecodeOptimizeRequest(body)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	if req.Source == "" {
		return nil, http.StatusBadRequest, errors.New("source is required")
	}
	if status, err := s.validateRequest(r, req); err != nil {
		return nil, status, err
	}
	return req, 0, nil
}

// readBody reads the whole request body, at most MaxSourceBytes, into
// one buffer sized from its Content-Length: 413 beyond the limit (even
// when a JSON body's first value ends inside it), 400 with the reason
// prefixed by what on any other read failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, int, error) {
	body, err := scope.ReadBody(w, r, s.cfg.MaxSourceBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("%s: %w", what, err)
	}
	return body, 0, nil
}

// decodeBinaryRequest handles the octet-stream form of /v1/optimize:
// the body is a raw .text blob, the request knobs ride in query
// parameters (queryRequest's, plus name and base). The blob is decoded
// and lifted immediately; the resulting assembly becomes the request
// Source, so binary requests share the JSON path's pipeline, queue and
// result cache — two blobs that decode to the same unit under the same
// spec share a cache entry.
func (s *Server) decodeBinaryRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	raw, status, err := s.readBody(w, r, "reading request body")
	if err != nil {
		return nil, status, err
	}
	if len(raw) == 0 {
		return nil, http.StatusBadRequest, errors.New("machine-code body is required")
	}
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		name = "request.bin"
	}
	var base int64
	if v := q.Get("base"); v != "" {
		if base, err = strconv.ParseInt(v, 0, 64); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("invalid base %q", v)
		}
	}
	u, err := decode.ToUnit(raw, decode.UnitOptions{FileName: name, Base: base})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	req, err := queryRequest(q)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	req.Name, req.Source = name, u.String()
	if status, err := s.validateRequest(r, req); err != nil {
		return nil, status, err
	}
	return req, 0, nil
}

// queryRequest reads the knobs the binary and archive forms carry in
// query parameters: spec, check, no_cache and deadline_ms.
// validateRequest folds explain, verify and trace, as for every form.
func queryRequest(q url.Values) (*OptimizeRequest, error) {
	req := &OptimizeRequest{Spec: q.Get("spec")}
	req.Options.Check = cachekey.QueryFlag(q.Get("check"))
	req.Options.NoCache = cachekey.QueryFlag(q.Get("no_cache"))
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid deadline_ms %q", v)
		}
		req.Options.DeadlineMS = ms
	}
	return req, nil
}

// validateRequest applies the path-independent request checks: the
// pipeline spec, the deadline, and the query-parameter spellings of
// the explain, verify and trace options (FoldQuery).
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
	if err := req.FoldQuery(r.URL.Query()); err != nil {
		return http.StatusBadRequest, err
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

// writeJSON answers with v encoded as JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	writeBody(w, status, body, err)
}

// writeBody answers with an encoded JSON body, or with a 500 when the
// encoding failed. The bytes are all in hand, so the Content-Length is
// declared: a client or router reading the answer can size its buffer
// once, and no answer is sent chunked.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		body, status = scope.ErrorBody(err), http.StatusInternalServerError
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// encodeJSON returns v encoded as one line of JSON, HTML characters
// left unescaped.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}
