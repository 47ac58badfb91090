// Package scope is MAOSCOPE, the fleet observability plane: it turns
// the single-process MAOTRACE span streams of PR 4 into end-to-end
// distributed traces across the MAOFLEET topology (maoload →
// maorouter → maod shard), and gives every process a flight recorder
// for postmortem visibility without a metrics scrape.
//
// Three pieces live here:
//
//   - Trace context (Context, ParseHeader): a W3C-traceparent-style
//     X-Mao-Trace header carrying a 128-bit trace ID and the 64-bit
//     span ID of the caller's span. maoload originates one per
//     request, maorouter interposes a hop span and forwards the
//     context, and the shard daemon parents its whole MAOTRACE span
//     tree (queue → batch → pipeline → invocation → function →
//     verify) under it. Span IDs are derived deterministically from
//     (trace ID, parent, salt, index), so the stitched tree is
//     byte-deterministic at any worker count — only recorded wall
//     times vary, exactly like the rest of MAOTRACE.
//
//   - Span and Project: the cross-process export schema. Project maps
//     a trace.Collector's index-parented spans onto globally
//     addressable spans (trace_id / span_id / parent_id), and
//     ChromeEvents renders the same tree in Chrome trace-event form
//     for chrome://tracing and Perfetto.
//
//   - The flight recorder (flight.go): a bounded lock-free ring of
//     the last N completed request records plus a reservoir of the
//     slowest and all errored requests, served from the opt-in debug
//     listener as /debug/scope/{recent,slowest,errors}.
package scope

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mao/internal/trace"
)

// Trace modes of the service's ?trace= / options.trace request knob.
const (
	// TraceSpans returns the stitched span tree as a "trace" array.
	TraceSpans = "spans"
	// TraceChrome additionally renders the tree as Chrome trace events
	// in "trace_chrome".
	TraceChrome = "chrome"
)

// TraceHeader is the cross-process trace-context header:
//
//	X-Mao-Trace: <32 hex trace ID>-<16 hex parent span ID>
//
// The trace ID names the whole distributed request; the span ID names
// the sender's span, which the receiver's root spans parent under.
// Malformed or oversized values are ignored (the receiver originates
// a fresh context), mirroring how X-Mao-Request-ID is length-capped:
// attacker-controlled bytes are never reflected into logs or spans.
const TraceHeader = "X-Mao-Trace"

// Context is one hop's view of a distributed trace.
type Context struct {
	// TraceID is 32 lowercase hex digits (128 bits), shared by every
	// span of the distributed request.
	TraceID string
	// ParentSpanID is the 16-hex-digit span the receiver parents
	// under; empty when this process originated the trace.
	ParentSpanID string
}

// Valid reports whether c carries a usable trace ID.
func (c Context) Valid() bool { return isHex(c.TraceID, 32) }

// Header renders c in X-Mao-Trace form. An origin context (no parent
// span) uses the all-zero span ID, which ParseHeader maps back to "".
func (c Context) Header() string {
	p := c.ParentSpanID
	if p == "" {
		p = "0000000000000000"
	}
	return c.TraceID + "-" + p
}

// Child returns c with the parent span replaced — what a process
// forwards downstream after interposing its own span.
func (c Context) Child(spanID string) Context {
	return Context{TraceID: c.TraceID, ParentSpanID: spanID}
}

// ParseHeader parses an X-Mao-Trace value. ok is false for anything
// but the exact <32 hex>-<16 hex> shape (the caller then originates a
// fresh context instead of trusting the input).
func ParseHeader(v string) (Context, bool) {
	if len(v) != 49 || v[32] != '-' {
		return Context{}, false
	}
	tid, sid := v[:32], v[33:]
	if !isHex(tid, 32) || !isHex(sid, 16) {
		return Context{}, false
	}
	if sid == "0000000000000000" {
		sid = ""
	}
	return Context{TraceID: tid, ParentSpanID: sid}, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// NewContext originates a trace: a fresh random 128-bit trace ID and
// a fresh origin span ID (the caller's own span).
func NewContext() Context {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// rand.Read failing means larger problems; a fixed ID keeps
		// the request serviceable.
		return Context{TraceID: "00000000000000000000deadbeef0000", ParentSpanID: "deadbeef00000000"}
	}
	return Context{
		TraceID:      hex.EncodeToString(b[:16]),
		ParentSpanID: hex.EncodeToString(b[16:]),
	}
}

// SpanID deterministically derives the ID of the index-th span of a
// (trace, parent, salt) scope: the first 8 bytes of SHA-256 over the
// length-delimited inputs. Determinism is what makes a stitched trace
// byte-identical at any worker count — the span stream's order is
// deterministic (the pass manager merges in invocation/function
// order), so index-derived IDs are too. The salt separates span trees
// that share a trace and parent (each unit of an archive request, for
// example, salts with its content address).
func SpanID(traceID, parentID, salt string, index int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s:%d:%s:%d:%s:%d", len(traceID), traceID, len(parentID), parentID, len(salt), salt, index)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// Span is one node of a stitched cross-process trace — the schema of
// the ?trace=1 payload, pinned by testdata/scope_trace.schema.json.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// ParentID is the enclosing span, possibly in another process;
	// empty only for the origin root of the whole trace.
	ParentID string `json:"parent_id,omitempty"`
	// Process names the process class that recorded the span: "maod",
	// "maorouter", "maoload".
	Process string `json:"process"`
	Kind    string `json:"kind"`
	// Name is the human handle: the pass ref ("REDTEST[0]") for
	// invocation/function/verify spans, the shard URL for hop spans.
	Name     string `json:"name,omitempty"`
	Function string `json:"function,omitempty"`
	Worker   int    `json:"worker,omitempty"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	// NodesBefore/NodesAfter carry the IR size around pipeline-layer
	// spans (0 for queue/batch/hop spans).
	NodesBefore int  `json:"nodes_before,omitempty"`
	NodesAfter  int  `json:"nodes_after,omitempty"`
	Changed     bool `json:"changed,omitempty"`
	// Stats is the span's counter delta (invocation spans) or
	// span-specific accounting (decode sizes, for example).
	Stats map[string]int `json:"stats,omitempty"`
	// Attrs carries hop attribution: shard choice, probe state,
	// attempt number, failover reason.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Project stitches a collector's span stream into the cross-process
// schema: every span gets a deterministic SpanID, index parents become
// span-ID parents, and roots (Parent == -1) parent under the inbound
// context. The collector's span order is preserved.
func Project(spans []trace.Span, tc Context, process, salt string) []Span {
	out := make([]Span, len(spans))
	ids := make([]string, len(spans))
	for i := range spans {
		ids[i] = SpanID(tc.TraceID, tc.ParentSpanID, salt, i)
	}
	for i, s := range spans {
		parent := tc.ParentSpanID
		if s.Parent >= 0 && s.Parent < len(spans) {
			parent = ids[s.Parent]
		}
		name := s.Ref.String()
		out[i] = Span{
			TraceID:     tc.TraceID,
			SpanID:      ids[i],
			ParentID:    parent,
			Process:     process,
			Kind:        string(s.Kind),
			Name:        name,
			Function:    s.Function,
			Worker:      s.Worker,
			StartNS:     int64(s.Start),
			DurNS:       int64(s.Dur),
			NodesBefore: s.NodesBefore,
			NodesAfter:  s.NodesAfter,
			Changed:     s.Changed,
			Stats:       s.Stats,
		}
	}
	return out
}

// ChromeEvent is one complete ("ph":"X") Chrome trace event — the
// ?trace=chrome payload element, loadable in chrome://tracing and
// Perfetto. Pinned by testdata/scope_chrome.schema.json.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromePIDs fixes one pid per process class so stitched traces render
// as separate process tracks.
var chromePIDs = map[string]int{"maoload": 1, "maorouter": 2, "maod": 3}

// ChromeEvents renders stitched spans as Chrome trace events. Spans of
// different processes land on different pid tracks; function spans
// spread over tid worker+1 like trace.WriteChromeTrace.
func ChromeEvents(spans []Span) []ChromeEvent {
	events := make([]ChromeEvent, 0, len(spans))
	for _, s := range spans {
		name := s.Name
		if name == "" {
			name = s.Kind
		}
		if s.Function != "" {
			name += " " + s.Function
		}
		tid := 0
		if s.Kind == string(trace.KindFunction) {
			tid = s.Worker + 1
		}
		pid := chromePIDs[s.Process]
		if pid == 0 {
			pid = 9
		}
		args := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
		}
		if s.ParentID != "" {
			args["parent_id"] = s.ParentID
		}
		if len(s.Stats) > 0 {
			args["stats"] = s.Stats
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, ChromeEvent{
			Name: name,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   float64(s.StartNS) / float64(time.Microsecond),
			Dur:  float64(s.DurNS) / float64(time.Microsecond),
			PID:  pid,
			TID:  tid,
			Args: args,
		})
	}
	return events
}
