package router

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"mao/internal/scope"
)

// MAOSCOPE wiring for the router: the hop span (one per forward,
// carrying shard choice and failover attribution) and its splice into
// traced responses. Request identity, trace-context adoption, the
// access log and the flight recorder are internal/scope's request
// layer, which the proxy path runs behind; the forwarded X-Mao-Trace
// carries the hop span as the shard's parent.

// hopSpan seeds the router's hop span for one proxied request. The ID
// is salted with the request ID so two requests reusing one inbound
// context still get distinct hop spans; timing and attribution are
// filled in when the forward completes.
func hopSpan(tc scope.Context, rid string) scope.Span {
	return scope.Span{
		TraceID:  tc.TraceID,
		SpanID:   scope.SpanID(tc.TraceID, tc.ParentSpanID, "hop:"+rid, 0),
		ParentID: tc.ParentSpanID,
		Process:  "maorouter",
		Kind:     "hop",
	}
}

// finishHop fills in the hop span once the answer is in hand: its
// duration since the request arrived, the shard that answered, the
// attempt, the healthy shard count and, when an earlier candidate
// failed, which one and why.
func (r *Router) finishHop(hop *scope.Span, start time.Time, shard string, attempt int, failedOver string, failure error) {
	hop.DurNS = time.Since(start).Nanoseconds()
	hop.Attrs = map[string]string{
		"shard":   shard,
		"attempt": strconv.Itoa(attempt + 1),
		"healthy": strconv.Itoa(r.Healthy()),
	}
	if failure != nil {
		hop.Attrs["failover_from"] = failedOver
		hop.Attrs["failover_reason"] = failure.Error()
	}
}

// spliceTrace inserts the hop span into a shard's traced response
// body: the hop lands at the head of the "trace" array and, when the
// response carries one, of "trace_chrome". On any parse trouble the
// body passes through untouched — tracing must never break the data
// path.
func spliceTrace(body []byte, hop scope.Span) []byte {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return body
	}
	raw, ok := doc["trace"]
	if !ok {
		return body
	}
	var spans []scope.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return body
	}
	spans = append([]scope.Span{hop}, spans...)
	enc, err := json.Marshal(spans)
	if err != nil {
		return body
	}
	doc["trace"] = enc
	if rawC, ok := doc["trace_chrome"]; ok {
		var events []scope.ChromeEvent
		if err := json.Unmarshal(rawC, &events); err == nil {
			events = append(scope.ChromeEvents([]scope.Span{hop}), events...)
			if encC, err := json.Marshal(events); err == nil {
				doc["trace_chrome"] = encC
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return body
	}
	out = append(out, '\n')
	return out
}

// DebugHandler returns the router's debug plane for the opt-in
// -debug-addr listener: pprof under /debug/pprof/ and the flight
// recorder under /debug/scope/. Never mounted on the proxy port.
func (r *Router) DebugHandler() http.Handler { return scope.DebugHandler("maorouter", r.flight) }
