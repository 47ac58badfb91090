// Package trace is MAO's structured observability subsystem: pipeline
// spans and instruction provenance, turned into artifacts humans and
// tools consume.
//
// A Collector gathers one Span per pass invocation (and, for function
// passes, one per invocation × function) while pass.Manager runs a
// pipeline. Collection is designed around the parallel manager's
// merge discipline: workers record into private storage and the
// manager adds spans in deterministic (invocation, function) order, so
// the span stream is identical at any worker count — only the recorded
// wall times differ.
//
// Exporters turn the span stream into:
//
//   - JSON lines (WriteJSON), one span per line, for log pipelines;
//   - Chrome trace-event format (WriteChromeTrace), loadable in
//     chrome://tracing and Perfetto;
//   - a terminal summary table (WriteSummary), what `mao -timings`
//     prints.
//
// The companion explain.go renders instruction provenance (ir.Node
// Prov records stamped by pass.Ctx helpers) as annotated assembly and
// machine-readable per-instruction lineage — the data a phase-ordering
// searcher consumes.
package trace

import (
	"sync"
	"time"

	"mao/internal/ir"
)

// Ref identifies one pass invocation, NAME[idx]. It is the same type
// the IR uses for provenance records.
type Ref = ir.PassRef

// Kind discriminates span granularities.
type Kind string

// Span kinds.
const (
	// KindPipeline is the root span of one pipeline run.
	KindPipeline Kind = "pipeline"
	// KindInvocation covers one pass invocation end to end.
	KindInvocation Kind = "invocation"
	// KindFunction covers one function within a function-pass
	// invocation.
	KindFunction Kind = "function"
	// KindVerify covers the translation-validation check that follows
	// one pass invocation when the pipeline runs under a
	// verify.Certifier.
	KindVerify Kind = "verify"
	// KindDecode covers lifting a machine-code buffer into IR (the
	// binary front end, decode.ToUnit). Its Stats carry the byte and
	// instruction counts of the decoded buffer.
	KindDecode Kind = "decode"
	// KindQueue covers the time a service request spent admitted but
	// waiting for a worker (maod's queue). It is the root of the
	// daemon-side span tree: queue → batch → pipeline.
	KindQueue Kind = "queue"
	// KindBatch covers a request's execution slot on its worker, from
	// pickup to the posted result; it parents the pipeline root.
	KindBatch Kind = "batch"
	// KindHop covers one router forward (maorouter → shard), stamped
	// by the router with shard choice and failover attribution.
	KindHop Kind = "hop"
)

// Span is one timed region of a pipeline run.
type Span struct {
	// Kind is the span's granularity.
	Kind Kind `json:"kind"`
	// Ref names the pass invocation (zero for the pipeline root).
	Ref Ref `json:"ref"`
	// Function is the function the span covers ("" for unit-level and
	// invocation-level spans).
	Function string `json:"function,omitempty"`
	// Worker is the worker-pool slot that executed the span (0 for the
	// manager goroutine / sequential execution).
	Worker int `json:"worker"`
	// Start is the offset from the collector's epoch; Dur the span's
	// wall time. Times are the only nondeterministic span fields.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// NodesBefore/NodesAfter are the IR size (node count) around the
	// span — the whole unit for unit-level spans, the function span
	// for function-level ones. Their difference is the span's IR-size
	// delta.
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
	// Changed reports what the pass returned for this region.
	Changed bool `json:"changed"`
	// Stats is the span's own statistics delta (key → count under the
	// invocation's pass name), nil when the pass counted nothing here.
	Stats map[string]int `json:"stats,omitempty"`
	// Parent is the index (in collector order) of the enclosing span,
	// -1 for the root.
	Parent int `json:"parent"`
	// TraceID correlates the span with a request (maod's X-Request-ID);
	// empty outside the service.
	TraceID string `json:"trace_id,omitempty"`
}

// Collector accumulates the spans of one pipeline run (or one maod
// request). A nil *Collector is the disabled tracer: pass.Manager
// checks for nil before doing any span work, so the disabled-mode cost
// is one pointer comparison per potential span.
type Collector struct {
	// TraceID, when set before the run, is stamped on every span added
	// (and echoed by the exporters).
	TraceID string

	epoch time.Time // monotonic anchor for Start offsets
	wall  time.Time // wall-clock epoch, for absolute export timestamps

	mu    sync.Mutex
	spans []Span
}

// NewCollector returns an empty collector anchored at the current
// time.
func NewCollector() *Collector {
	now := time.Now()
	return &Collector{epoch: now, wall: now}
}

// Enabled reports whether the collector is non-nil, readable on a nil
// receiver.
func (c *Collector) Enabled() bool { return c != nil }

// Now returns the offset of the current instant from the collector's
// epoch (monotonic). Safe on a nil receiver (returns 0) so callers can
// stamp span starts unconditionally.
func (c *Collector) Now() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch)
}

// Add appends a span, stamping the collector's TraceID, and returns
// its index (the value later spans use as Parent). Add is serialized:
// the pass manager's merge discipline already orders spans
// deterministically, the mutex only guards against concurrent
// collectors sharing a Collector by mistake.
func (c *Collector) Add(s Span) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.TraceID == "" {
		s.TraceID = c.TraceID
	}
	c.spans = append(c.spans, s)
	return len(c.spans) - 1
}

// Update applies fn to span i under the collector lock. The pass
// manager uses it to finish placeholder parent spans (pipeline root,
// invocation) once their children have completed.
func (c *Collector) Update(i int, fn func(*Span)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.spans) {
		fn(&c.spans[i])
	}
}

// Spans returns a snapshot of the collected spans in collection order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Epoch returns the collector's wall-clock epoch (what Start offsets
// are relative to).
func (c *Collector) Epoch() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.wall
}
