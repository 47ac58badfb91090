package cachekey

import (
	"fmt"
	"net/url"
	"strings"
)

// OptimizeRequest is the body of POST /v1/optimize. It lives here,
// beside the key derivation, because the daemon and the router both
// decode it (DecodeOptimizeRequest) and key it (Key): one type, one
// decoder and one derivation, so the two tiers cannot disagree on what
// a body asks for.
type OptimizeRequest struct {
	// Name is the unit name used in diagnostics (DefaultName when
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

// Trace modes of OptimizeOptions.Trace.
const (
	// TraceSpans returns the stitched span tree as a "trace" array.
	TraceSpans = "spans"
	// TraceChrome additionally renders the tree as Chrome trace events
	// in "trace_chrome".
	TraceChrome = "chrome"
)

// QueryFlag reports whether a boolean query parameter is set: 1 or
// true.
func QueryFlag(v string) bool { return v == "1" || v == "true" }

// FoldQuery folds the curl-friendly query spellings of the body
// options into Options — ?explain and ?verify set their flag,
// ?trace=1|true|spans|chrome the trace mode — and validates the trace
// mode, whichever spelling set it. Both tiers call it before Key, so a
// request routes and caches as the same request, and both read a trace
// from either spelling.
func (r *OptimizeRequest) FoldQuery(q url.Values) error {
	if QueryFlag(q.Get("explain")) {
		r.Options.Explain = true
	}
	if QueryFlag(q.Get("verify")) {
		r.Options.Verify = true
	}
	switch v := q.Get("trace"); v {
	case "":
	case "1", "true", TraceSpans:
		r.Options.Trace = TraceSpans
	case TraceChrome:
		r.Options.Trace = TraceChrome
	default:
		return fmt.Errorf("invalid trace mode %q (want 1 or chrome)", v)
	}
	switch r.Options.Trace {
	case "", TraceSpans, TraceChrome:
		return nil
	}
	return fmt.Errorf("invalid options.trace %q (want %q or %q)", r.Options.Trace, TraceSpans, TraceChrome)
}

// UnitName returns the name the unit is parsed under: Name, or
// DefaultName when the request names none.
func (r *OptimizeRequest) UnitName() string {
	if r.Name == "" {
		return DefaultName
	}
	return r.Name
}

// Key returns the request's content address: Key over its
// response-relevant fields. Both tiers call it after FoldQuery.
func (r *OptimizeRequest) Key() string {
	return Key(Request{
		Name:    r.Name,
		Source:  r.Source,
		Spec:    r.Spec,
		Check:   r.Options.Check,
		Explain: r.Options.Explain,
		Verify:  r.Options.Verify,
	})
}

// JSONBody reports whether an optimize body of the given Content-Type
// is a JSON OptimizeRequest. Only application/octet-stream is not: it
// carries raw machine code, with the knobs in query parameters. Both
// tiers apply this one rule, so a body the daemon reads as JSON is a
// body the router keys and coalesces as JSON, whatever type it is sent
// under (curl -d sends application/x-www-form-urlencoded).
func JSONBody(contentType string) bool {
	return !strings.HasPrefix(contentType, "application/octet-stream")
}
