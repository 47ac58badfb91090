package serve

import (
	"mao/internal/cachekey"
	"mao/internal/scope"
	"mao/internal/trace"
)

// MAOSCOPE wiring for the daemon: the request's trace context and
// record travel in the request context (internal/scope's Layer, which
// Handler wraps the mux in); the worker parents the span tree under the
// trace context, and the handler projects it into ?trace= payloads.

// traceResponse clones resp with the request's stitched span tree
// attached (the cached copy stays trace-free: spans belong to one
// execution, not to the content-addressed result).
func traceResponse(resp *OptimizeResponse, spans []trace.Span, tc scope.Context, salt, mode string) *OptimizeResponse {
	tr := *resp
	tr.Trace = scope.Project(spans, tc, "maod", salt)
	if mode == cachekey.TraceChrome {
		tr.TraceChrome = scope.ChromeEvents(tr.Trace)
	}
	return &tr
}
