// Package serve implements MAOD, the optimization-as-a-service form of
// MAO: a long-lived, stdlib-only HTTP daemon that accepts
// assembly-optimization requests and answers with optimized assembly,
// per-pass statistics and (on request) static-checker diagnostics.
//
// The paper positions MAO as a reusable optimization layer other
// toolchains call into; phase-ordering and profile-guided workloads
// re-optimize the same units over and over with varying pipelines.
// This package gives those callers a server with the properties such
// traffic needs:
//
//   - A bounded worker pool with admission control: at most QueueDepth
//     requests wait for a worker; beyond that the service answers 429
//     with a Retry-After hint instead of collapsing under load.
//   - Per-request deadlines, plumbed as context.Context all the way
//     into pass.Manager — a request canceled or timed out while queued
//     never occupies a worker, and one mid-pipeline aborts between
//     passes/functions.
//   - A content-addressed result cache keyed on (source hash, spec,
//     options) with LRU eviction: re-optimizing an unchanged unit with
//     an unchanged pipeline is a cache hit and touches no worker.
//   - An observability plane: /metrics in Prometheus text format
//     (request counts, latency histogram, queue depth and wait,
//     result-cache and memo hit rates, aggregated pass
//     counters), /healthz, /readyz, and structured JSON access logs.
//   - Graceful drain: Close stops admission, finishes every admitted
//     request, and only then returns — zero dropped requests on
//     SIGTERM (cmd/maod wires the signal to Close).
//
// The functional contract is exact: for any source and pass spec, the
// assembly returned by POST /v1/optimize is byte-identical to what
// cmd/mao emits for the same spec (the differential tests pin this,
// including under concurrent load).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/flight"
	"mao/internal/memo"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/scope"
	"mao/internal/trace"
	"mao/internal/verify"
)

// Config parameterizes a Server. The zero value selects production
// defaults (see withDefaults).
type Config struct {
	// Workers is the number of pipeline worker goroutines (0 =
	// GOMAXPROCS). Each worker executes one request at a time.
	Workers int
	// QueueDepth caps the number of admitted-but-unstarted requests;
	// beyond it POST /v1/optimize answers 429 + Retry-After (0 = 64).
	QueueDepth int
	// ResultCacheEntries caps the content-addressed result cache
	// (0 = 512, negative disables the cache).
	ResultCacheEntries int
	// DefaultDeadline bounds a request that names no deadline_ms
	// (0 = 30s); MaxDeadline caps what a request may ask for
	// (0 = 2m). The deadline covers queueing and execution.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxSourceBytes caps the request body (0 = 16 MiB).
	MaxSourceBytes int64
	// MaxArchiveUnits caps the number of units one archive request may
	// carry (0 = 256).
	MaxArchiveUnits int
	// QuotaRate enables per-client token-bucket quotas: each client
	// (X-Mao-Client header, fallback remote address) accrues QuotaRate
	// tokens per second up to QuotaBurst, and each request consumes
	// one. A client out of tokens is answered 429 + Retry-After
	// BEFORE global admission — it consumes no queue slot, so one hot
	// tenant cannot starve the rest (0 = quotas disabled).
	QuotaRate float64
	// QuotaBurst is the per-client bucket capacity (0 = 16).
	QuotaBurst int
	// AccessLog, when non-nil, receives one JSON line per completed
	// HTTP request.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 512
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 16 << 20
	}
	if c.MaxArchiveUnits <= 0 {
		c.MaxArchiveUnits = 256
	}
	return c
}

// job is one admitted optimization request on its way from the
// admission queue to a worker.
type job struct {
	req  *OptimizeRequest
	key  string // content address
	ctx  context.Context
	call *flight.Call[jobResult] // the worker publishes into it exactly once

	// col is the request's span collector, created at admission so its
	// epoch anchors the queue-wait span; admitted is the admission
	// instant as a collector offset.
	col      *trace.Collector
	admitted time.Duration
}

// jobResult is what a worker posts back to the waiting handler.
type jobResult struct {
	resp   *OptimizeResponse
	status int // HTTP status (200, or the error class)
	err    error
	// spans is the request's full span stream (queue → batch →
	// pipeline → ...); the handler projects it into the ?trace=
	// payload, and the flight record reads its queue wait and
	// pass-latency vector from it.
	spans []trace.Span
}

// Server is the MAOD service: construct with New, expose via Handler,
// stop with Close (graceful drain).
type Server struct {
	cfg     Config
	results *resultCache
	memo    *memo.Memo
	flights flight.Group[jobResult] // identical in-flight misses, by result-cache key
	met     *metrics
	quota   *quotas // nil when Config.QuotaRate == 0
	// flight keeps the last scope.FlightRing /v1/* requests, served by
	// DebugHandler.
	flight *scope.Recorder

	queue chan *job

	queued   atomic.Int64 // admitted, not yet picked up by a worker
	inflight atomic.Int64 // being executed by a worker

	admitMu   sync.RWMutex
	accepting bool

	draining  atomic.Bool
	workerWG  sync.WaitGroup
	closeOnce sync.Once
	started   time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		results:   newResultCache(cfg.ResultCacheEntries),
		met:       newMetrics(),
		quota:     newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		flight:    scope.NewRecorder(scope.FlightRing),
		queue:     make(chan *job, cfg.QueueDepth),
		accepting: true,
		started:   time.Now(),
	}
	// Salted exactly like mao.NewMemo: entries never outlive the pass
	// catalog or validator semantics they were filled under.
	s.memo = memo.New(0, pass.CatalogVersion(), check.Version, verify.Version)
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether Close has begun (readyz answers 503 then).
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the number of admitted requests not yet picked up
// by a worker.
func (s *Server) QueueDepth() int64 { return s.queued.Load() }

// Close drains the server: admission stops (new optimize requests get
// 503, readyz flips), every already-admitted request is executed to
// completion, and the worker pool exits. It is safe to call more than
// once. When fronted by an http.Server, call Close first and Shutdown
// second: Close unblocks the waiting handlers, and Shutdown then only
// waits for response writes — cmd/maod does exactly that.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.admitMu.Lock()
		s.accepting = false
		s.admitMu.Unlock()
		close(s.queue)
		s.workerWG.Wait()
	})
}

// admit performs admission control. It returns (true, 0) and enqueues
// on success; (false, retryAfter>0) when the queue is full (429); and
// (false, 0) when the server is draining (503).
func (s *Server) admit(j *job) (ok bool, retryAfter int) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if !s.accepting {
		return false, 0
	}
	for {
		n := s.queued.Load()
		if n >= int64(s.cfg.QueueDepth) {
			s.met.queueRejects.Add(1)
			return false, 1
		}
		if s.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	// queued ≥ channel occupancy always (a worker decrements only
	// after it has received), so this send cannot block.
	s.queue <- j
	return true, 0
}

// worker executes admitted jobs until the queue closes. Each worker
// owns one relaxation state for its lifetime — a relax.State is
// single-goroutine, and per-worker ownership lets back-to-back jobs
// over similar units reuse fragment partitions without locking.
func (s *Server) worker() {
	defer s.workerWG.Done()
	st := relax.NewState()
	for j := range s.queue {
		s.queued.Add(-1)
		s.inflight.Add(1) // the job leaves as runJob posts its result
		s.met.jobsPickedUp.Add(1)
		s.runJob(j, st)
	}
}

// runJob executes one request end to end and posts the result. The
// execution path mirrors cmd/mao exactly — parse, pass.Manager (with
// the shared memo unless the request verifies or traces), Analyze,
// emit — so responses are byte-identical to the CLI. Pass instances
// are created fresh per unit (via pass.NewManager): passes like
// SIMADDR accumulate per-run instance state, so sharing instances
// across units would cross-contaminate results.
func (s *Server) runJob(j *job, st *relax.State) {
	if err := j.ctx.Err(); err != nil {
		s.post(j, jobResult{status: statusForCtx(err), err: err})
		return
	}
	// Every request's pipeline is traced: the collector carries the
	// request's trace ID (X-Request-ID) into the spans, and the
	// invocation spans feed the per-pass latency histograms on /metrics.
	// The handler created the collector at admission, so its epoch
	// anchors the queue-wait span.
	col := j.col
	// The daemon-side span tree roots at the queue span: admitted →
	// picked up, then the batch span covers this request's execution
	// slot on its worker, and the pipeline root (added by pass.Manager)
	// is re-parented under it after the run.
	wait := col.Now() - j.admitted
	s.met.queueWait.Observe(wait.Seconds())
	queueIdx := col.Add(trace.Span{Kind: trace.KindQueue, Start: j.admitted, Dur: wait, Parent: -1})
	batchIdx := col.Add(trace.Span{Kind: trace.KindBatch, Start: col.Now(), Parent: queueIdx})
	finish := func(res jobResult) {
		col.Update(batchIdx, func(sp *trace.Span) { sp.Dur = col.Now() - sp.Start })
		res.spans = col.Spans()
		s.met.observePassSpans(res.spans)
		s.post(j, res)
	}
	u, err := asm.ParseString(j.req.UnitName(), j.req.Source)
	if err != nil {
		finish(jobResult{status: 422, err: err})
		return
	}
	mgr, err := pass.NewManager(j.req.Spec)
	if err != nil {
		// Unreachable for admitted jobs (the handler validated the
		// spec), but kept as defense in depth.
		finish(jobResult{status: 400, err: err})
		return
	}
	// One worker per pipeline: under server load, parallelism across
	// requests beats parallelism within one.
	mgr.Workers = 1
	mgr.RelaxState = st
	mgr.Tracer = col
	// The shared pipeline memo makes repeat content O(splice). Verified
	// runs install a Hook (the manager disables memoization under one —
	// the certifier must observe every invocation); traced runs bypass
	// so ?trace= always describes a full execution (its span tree is
	// pinned byte-identical across worker counts by the differential
	// suite, and a memo hit has no invocation spans to offer).
	if !j.req.Options.Verify && j.req.Options.Trace == "" {
		mgr.Memo = s.memo
	}
	var vcert *verify.Certifier
	if j.req.Options.Verify {
		vcert = &verify.Certifier{Tracer: col, SpanParent: batchIdx + 1}
		mgr.Hook = vcert
	}
	stats, err := mgr.RunContext(j.ctx, u)
	// pass.Manager added its pipeline root right after the batch span
	// with Parent -1; stitch it under the batch span.
	col.Update(batchIdx+1, func(sp *trace.Span) {
		if sp.Kind == trace.KindPipeline {
			sp.Parent = batchIdx
		}
	})
	if err != nil {
		finish(jobResult{status: statusForRun(err), err: err})
		return
	}
	if err := u.Analyze(); err != nil {
		finish(jobResult{status: 422, err: err})
		return
	}
	resp := &OptimizeResponse{Assembly: u.String(), Stats: stats.Map()}
	if j.req.Options.Explain {
		resp.Lineage = trace.Lineage(u)
	}
	if j.req.Options.Check {
		resp.Diags = check.CheckUnit(u)
		if resp.Diags == nil {
			resp.Diags = []check.Diag{}
		}
	}
	if vcert != nil {
		resp.Verify = verifyVerdicts(vcert)
		for _, v := range vcert.Violations {
			d := v.Diag
			if d.Origin == "" {
				d.Origin = fmt.Sprintf("%s[%d]", v.Pass, v.Index)
			}
			resp.Diags = append(resp.Diags, d)
			s.met.verifyRefutations.Add(1)
		}
		check.Sort(resp.Diags)
	}
	s.met.mergePassStats(stats)
	s.results.put(j.key, resp)
	finish(jobResult{resp: resp, status: 200})
}

// post publishes j's result into its call. The job leaves the
// in-flight count first, so a client already holding its answer never
// sees its own request still counted in maod_inflight.
func (s *Server) post(j *job, res jobResult) {
	s.inflight.Add(-1)
	j.call.Publish(res)
}

// verifyVerdicts projects the certifier's per-invocation results onto
// the response schema.
func verifyVerdicts(vcert *verify.Certifier) []VerifyVerdict {
	out := make([]VerifyVerdict, 0, len(vcert.Invocations))
	for _, inv := range vcert.Invocations {
		v := VerifyVerdict{
			Pass:     inv.Pass,
			Index:    inv.Index,
			Statuses: make(map[string]int),
			DurMS:    float64(inv.Dur) / float64(time.Millisecond),
		}
		for st, n := range inv.Result.Counts() {
			v.Statuses[string(st)] = n
		}
		for _, fr := range inv.Result.Refuted() {
			v.Refuted = append(v.Refuted, fr.Func)
		}
		out = append(out, v)
	}
	return out
}

// statusForCtx maps a context error to the HTTP status the handler
// reports: 504 for an expired deadline, 503 for a canceled request.
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return 504
	}
	return 503
}

// statusForRun classifies a pipeline error: context errors keep their
// timeout/cancel status, everything else is an unprocessable unit.
func statusForRun(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return statusForCtx(err)
	}
	return 422
}
