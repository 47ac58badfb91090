package cachekey

import "strings"

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

// UnitName returns the name the unit is parsed under: Name, or
// DefaultName when the request names none.
func (r *OptimizeRequest) UnitName() string {
	if r.Name == "" {
		return DefaultName
	}
	return r.Name
}

// Key returns the request's content address: Key over its
// response-relevant fields. Both tiers call it after folding the
// ?explain and ?verify query spellings into Options.
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
