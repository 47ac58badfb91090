package router

// Optimize requests cross the router as fully buffered forwards, which
// is what lets identical in-flight misses coalesce: when K identical
// /v1/optimize requests are in flight at the router simultaneously,
// only one forward reaches a shard; the other K-1 wait on it and
// replay the buffered response with an X-Mao-Cache: coalesced verdict.
// The shard coalesces its own concurrent misses too (internal/serve),
// but router-side coalescing keeps the duplicate requests off the wire
// entirely — they consume no shard connection, no admission slot,
// nothing. Both tiers share internal/flight; only the result type
// differs.
//
// Identity is the routing key (route): for JSON optimize requests
// that is the daemon's own content-addressed result-cache key, so two
// requests coalesce exactly when the daemon would give them the same
// cache entry. Requests that opt out of caching (no_cache) or request
// a trace (every traced response is unique — it carries that request's
// hop span) take an unjoinable call instead: the same buffered forward,
// shared with no one. Archive submissions stream and take the proxy
// loop instead.
//
// The forward runs on a context detached from the leader's client: a
// leader that disconnects mid-flight must not kill the answer its
// followers are waiting on. The LAST waiter to abandon the call
// cancels the forward. The leader publishes a result on EVERY path —
// success, failover exhaustion (502), read error — so a waiter can
// never hang on a call whose forward died silently.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mao/internal/flight"
	"mao/internal/scope"
)

// flightTimeout bounds a buffered forward, which runs detached from
// the leader's client context. It equals maod's default MaxDeadline:
// no shard runs a request longer.
const flightTimeout = 2 * time.Minute

// proxyResult is one fully buffered shard response (or router-level
// error), the unit a coalesced call shares between its waiters.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	// shard is the backend that answered ("" when none was reachable).
	shard string
	// cache is the shard's own X-Mao-Cache verdict; followers override
	// it with "coalesced" when writing their copy.
	cache   string
	retries int
	// failoverFrom and failoverReason name the last shard that failed
	// before shard answered, and why; the hop span of a traced request
	// carries them.
	failoverFrom, failoverReason string
	// errMsg is non-empty for router-level failures (no shard
	// reachable); it becomes every waiter's recorded failure reason.
	errMsg string
}

// serveOptimize serves one optimize request through the flight group:
// the leader forwards on a detached context and publishes; everyone
// waits on the call and replays the buffered response. Followers
// report X-Mao-Cache: coalesced — the shard's verdict describes the
// leader's request, not theirs. A ?trace= response gets the hop span
// spliced into its span tree.
func (r *Router) serveOptimize(w http.ResponseWriter, req *http.Request, q *scope.Request, key string, shared bool, body []byte, hop scope.Span, start time.Time) {
	var c *flight.Call[proxyResult]
	leader := true
	if shared {
		c, leader = r.flights.Join(key)
	} else {
		c = r.flights.Solo()
	}
	if leader {
		// Detached from the leader's client: followers may outlive it.
		runCtx, runCancel := context.WithTimeout(context.WithoutCancel(req.Context()), flightTimeout)
		c.SetCancel(runCancel)
		rid, tc := q.ID, q.Trace
		go func() {
			c.Publish(r.forwardBuffered(runCtx, req, key, body, rid, tc, hop))
		}()
	} else {
		r.met.coalesced.Add(1)
	}

	res, err := c.Wait(req.Context())
	if err != nil {
		q.Fail(w, http.StatusServiceUnavailable, errors.New("request abandoned before the answer arrived"))
		return
	}

	verdict := res.cache
	if !leader {
		verdict = "coalesced"
	}
	respBody := res.body
	if res.status == http.StatusOK && req.URL.Query().Get("trace") != "" {
		hop.DurNS = time.Since(start).Nanoseconds()
		hop.Attrs = map[string]string{
			"shard":   res.shard,
			"attempt": strconv.Itoa(res.retries + 1),
			"healthy": strconv.Itoa(r.Healthy()),
		}
		if res.failoverFrom != "" {
			hop.Attrs["failover_from"] = res.failoverFrom
			hop.Attrs["failover_reason"] = res.failoverReason
		}
		respBody = spliceTrace(respBody, hop)
	}
	copyHeaders(w.Header(), res.header)
	if res.shard != "" {
		w.Header().Set(shardHeader, res.shard)
	}
	q.Shard, q.Retries, q.Err = res.shard, res.retries, res.errMsg
	q.SetCache(w, verdict)
	w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
	w.WriteHeader(res.status)
	w.Write(respBody)
}

// forwardBuffered is the buffered counterpart of proxy's forwarding
// loop: same candidates, same failover-once semantics, same passive
// health marking — but the response is fully buffered so it can fan
// out to every waiter, and a shard dying mid-body fails over (or
// answers 502) instead of truncating a committed response.
func (r *Router) forwardBuffered(ctx context.Context, req *http.Request, key string, body []byte, rid string, tc scope.Context, hop scope.Span) proxyResult {
	candidates := r.candidates(key)
	var lastErr error
	var failedOver string
	for attempt, b := range candidates {
		if attempt > 0 {
			r.met.retries.Add(1)
		}
		fwdStart := time.Now()
		resp, err := r.forward(ctx, req, b, body, rid, tc.Child(hop.SpanID))
		if err != nil {
			r.setHealthy(b, false, "forward failed: "+err.Error())
			r.met.shard(b.name).errors.Add(1)
			lastErr, failedOver = err, b.name
			continue
		}
		respBody, rerr := scope.ReadAll(resp.Body, resp.ContentLength)
		resp.Body.Close()
		if rerr != nil {
			// The shard died mid-body. Nothing is committed to any
			// waiter (the body is buffered), so failing over is safe.
			r.setHealthy(b, false, "response read failed: "+rerr.Error())
			r.met.shard(b.name).errors.Add(1)
			lastErr, failedOver = rerr, b.name
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < len(candidates)-1 {
			r.setHealthy(b, false, "shard draining (503)")
			lastErr, failedOver = fmt.Errorf("shard %s answered 503 (draining)", b.name), b.name
			continue
		}
		r.met.shard(b.name).requests.Add(1)
		r.met.shard(b.name).latency.Observe(time.Since(fwdStart).Seconds())
		res := proxyResult{
			status:  resp.StatusCode,
			header:  resp.Header,
			body:    respBody,
			shard:   b.name,
			cache:   resp.Header.Get(scope.CacheHeader),
			retries: attempt,
		}
		if lastErr != nil {
			res.failoverFrom, res.failoverReason = failedOver, lastErr.Error()
		}
		return res
	}

	r.met.unrouted.Add(1)
	err := fmt.Errorf("no shard reachable: %w", lastErr)
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", "1")
	return proxyResult{
		status:  http.StatusBadGateway,
		header:  h,
		body:    scope.ErrorBody(err),
		retries: len(candidates) - 1,
		errMsg:  err.Error(),
	}
}
