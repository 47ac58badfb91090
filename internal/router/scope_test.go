package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"mao/internal/scope"
	"mao/internal/serve"
	"mao/internal/trace"
)

const (
	testTraceID    = "00010203040506070809f0e0d0c0b0a0"
	testParentSpan = "cafebabe8badf00d"
)

func testTraceHeader() string { return testTraceID + "-" + testParentSpan }

// tracedOptimize posts one optimize request through url with a fixed
// inbound X-Mao-Trace and ?trace=<mode>.
func tracedOptimize(t *testing.T, url, name, mode string) (*http.Response, *serve.OptimizeResponse) {
	t.Helper()
	return tracedPost(t, url+"/v1/optimize?trace="+mode, &serve.OptimizeRequest{Name: name, Source: testSource, Spec: "REDTEST"})
}

// tracedPost posts one optimize request to url with a fixed inbound
// X-Mao-Trace.
func tracedPost(t *testing.T, url string, o *serve.OptimizeRequest) (*http.Response, *serve.OptimizeResponse) {
	t.Helper()
	body, _ := json.Marshal(o)
	req, _ := http.NewRequest("POST", url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(scope.TraceHeader, testTraceHeader())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out serve.OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding traced response: %v\n%s", err, raw)
	}
	return resp, &out
}

// checkSpanTree verifies tree integrity of a cross-process trace: one
// hop span parented under the inbound context, every other span's
// parent resolving to a span in the tree, everything under one trace
// ID. Returns the hop span.
func checkSpanTree(t *testing.T, spans []scope.Span) scope.Span {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("empty span tree")
	}
	hop := spans[0]
	if hop.Process != "maorouter" || hop.Kind != "hop" {
		t.Fatalf("first span is %s/%s, want maorouter/hop", hop.Process, hop.Kind)
	}
	if hop.ParentID != testParentSpan {
		t.Errorf("hop parent = %q, want inbound parent %q", hop.ParentID, testParentSpan)
	}
	ids := map[string]bool{}
	for _, s := range spans {
		if s.TraceID != testTraceID {
			t.Errorf("span %s/%s has trace ID %q, want %q", s.Process, s.Kind, s.TraceID, testTraceID)
		}
		if ids[s.SpanID] {
			t.Errorf("duplicate span ID %s", s.SpanID)
		}
		ids[s.SpanID] = true
	}
	kinds := map[string]int{}
	for _, s := range spans[1:] {
		kinds[s.Kind]++
		if s.Process != "maod" {
			t.Errorf("non-hop span from process %q, want maod", s.Process)
		}
		if s.ParentID == "" {
			t.Errorf("shard span %s/%s is an orphan root", s.Kind, s.Name)
		} else if !ids[s.ParentID] {
			t.Errorf("span %s/%s parent %s not in the tree", s.Kind, s.Name, s.ParentID)
		}
	}
	for _, want := range []string{"queue", "batch", "pipeline", "invocation", "function"} {
		if kinds[want] == 0 {
			t.Errorf("no %s span in shard tree (kinds: %v)", want, kinds)
		}
	}
	// The shard's queue span must hang directly under the router's hop.
	for _, s := range spans[1:] {
		if s.Kind == "queue" && s.ParentID != hop.SpanID {
			t.Errorf("queue span parent = %s, want hop span %s", s.ParentID, hop.SpanID)
		}
	}
	return hop
}

// TestRouterTraceSplice: a traced optimize through the router comes
// back with the router's hop span spliced in front of the shard's
// tree, the shard tree re-parented under the hop, and the client's
// own trace context echoed (not the shard's re-parented one).
func TestRouterTraceSplice(t *testing.T) {
	_, front, _ := testFleet(t, 2, 0)
	resp, out := tracedOptimize(t, front.URL, "tr.s", "1")
	if got := resp.Header.Get(scope.TraceHeader); got != testTraceHeader() {
		t.Errorf("response %s = %q, want inbound context %q", scope.TraceHeader, got, testTraceHeader())
	}
	hop := checkSpanTree(t, out.Trace)
	if hop.Attrs["attempt"] != "1" {
		t.Errorf("hop attempt = %q, want 1 (no failover)", hop.Attrs["attempt"])
	}
	if hop.Attrs["shard"] != resp.Header.Get("X-Mao-Shard") {
		t.Errorf("hop shard attr %q != X-Mao-Shard %q", hop.Attrs["shard"], resp.Header.Get("X-Mao-Shard"))
	}
	if _, ok := hop.Attrs["failover_from"]; ok {
		t.Error("hop carries failover attribution on a clean forward")
	}
}

// TestRouterTraceChromeSplice: ?trace=chrome responses get the hop
// event spliced into trace_chrome too.
func TestRouterTraceChromeSplice(t *testing.T) {
	_, front, _ := testFleet(t, 1, 0)
	_, out := tracedOptimize(t, front.URL, "chrome.s", "chrome")
	checkSpanTree(t, out.Trace)
	if len(out.TraceChrome) != len(out.Trace) {
		t.Fatalf("trace_chrome has %d events for %d spans", len(out.TraceChrome), len(out.Trace))
	}
	ev := out.TraceChrome[0]
	if ev.Cat != "hop" || ev.PID != 2 {
		t.Errorf("first chrome event cat=%q pid=%d, want the router hop (cat=hop pid=2)", ev.Cat, ev.PID)
	}
}

// TestRouterTraceSpliceBodyOption: a trace asked for in the body's
// options, not the query, gets the hop span spliced in too, into
// trace_chrome as well for the chrome mode.
func TestRouterTraceSpliceBodyOption(t *testing.T) {
	_, front, _ := testFleet(t, 1, 0)
	for _, mode := range []string{"spans", "chrome"} {
		_, out := tracedPost(t, front.URL+"/v1/optimize", &serve.OptimizeRequest{
			Name: "body-" + mode + ".s", Source: testSource, Spec: "REDTEST",
			Options: serve.OptimizeOptions{Trace: mode},
		})
		checkSpanTree(t, out.Trace)
		if mode == "chrome" {
			if len(out.TraceChrome) != len(out.Trace) || out.TraceChrome[0].Cat != "hop" {
				t.Errorf("trace_chrome has %d events for %d spans, want the hop event first", len(out.TraceChrome), len(out.Trace))
			}
		}
	}
}

// TestRouterFailoverTracePropagation: kill the first-choice shard for
// a key, then send a traced request. The retried request's span tree
// still parents under the original trace ID, and the hop span carries
// the failover attribution (which shard died, why, attempt 2).
func TestRouterFailoverTracePropagation(t *testing.T) {
	r, front, shards := testFleet(t, 2, 0)

	var victimName string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("failover-%d.s", i)
		body, _ := json.Marshal(&serve.OptimizeRequest{Name: name, Source: testSource, Spec: "REDTEST"})
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if r.ring.seq(routeKey(req, body))[0] == 0 {
			victimName = name
			break
		}
	}
	if victimName == "" {
		t.Fatal("no key found owned by shard 0")
	}
	shards[0].Close()

	resp, out := tracedOptimize(t, front.URL, victimName, "1")
	if got := resp.Header.Get("X-Mao-Shard"); got != shards[1].URL {
		t.Fatalf("served by %q, want failover shard %q", got, shards[1].URL)
	}
	hop := checkSpanTree(t, out.Trace)
	if hop.Attrs["attempt"] != "2" {
		t.Errorf("hop attempt = %q, want 2 (one failover)", hop.Attrs["attempt"])
	}
	if hop.Attrs["shard"] != shards[1].URL {
		t.Errorf("hop shard = %q, want the shard that answered", hop.Attrs["shard"])
	}
	if hop.Attrs["failover_from"] != shards[0].URL {
		t.Errorf("failover_from = %q, want dead shard %q", hop.Attrs["failover_from"], shards[0].URL)
	}
	if hop.Attrs["failover_reason"] == "" {
		t.Error("failover_reason empty")
	}
}

// TestRouterTracedTruncatedBodyIs502: a traced request whose last
// candidate shard dies mid-body answers 502 — the buffered forward
// never commits a truncated body as a 200.
func TestRouterTracedTruncatedBodyIs502(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"assembly":"`)) // then the connection drops
	}))
	t.Cleanup(shard.Close)
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	resp, err := http.Post(front.URL+"/v1/optimize?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading the router's answer: %v", err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "no shard reachable") {
		t.Errorf("502 body %q lacks the failure reason", raw)
	}
}

// TestTraceByteDeterminismAcrossWorkers: the same traced request
// fetched through the router is byte-identical whether the shard runs
// 1 worker or 8, once the only nondeterministic span fields (wall
// times) are zeroed — span IDs, parentage, order, names, and stats
// are all content-derived. The request ID is pinned because the hop
// span is salted with it, and the hop's shard-URL attribute is
// normalized because the two test fleets listen on different ports
// (deployment config, not worker-dependent).
func TestTraceByteDeterminismAcrossWorkers(t *testing.T) {
	fetch := func(workers int) []byte {
		s := serve.New(serve.Config{Workers: workers})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		r, err := New(Config{Shards: []string{ts.URL}, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(r)
		t.Cleanup(func() { front.Close(); r.Close() })

		body, _ := json.Marshal(&serve.OptimizeRequest{Name: "det.s", Source: testSource, Spec: "REDTEST:REDMOV"})
		req, _ := http.NewRequest("POST", front.URL+"/v1/optimize?trace=1", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(scope.TraceHeader, testTraceHeader())
		req.Header.Set("X-Request-ID", "feedfacecafef00d")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serve.OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || len(out.Trace) == 0 {
			t.Fatalf("workers=%d: status %d, %d spans", workers, resp.StatusCode, len(out.Trace))
		}
		for i := range out.Trace {
			out.Trace[i].StartNS, out.Trace[i].DurNS = 0, 0
			if out.Trace[i].Kind == "hop" {
				out.Trace[i].Attrs["shard"] = "shard"
			}
		}
		enc, _ := json.Marshal(out.Trace)
		return enc
	}
	one := fetch(1)
	eight := fetch(8)
	if !bytes.Equal(one, eight) {
		t.Errorf("trace differs between workers 1 and 8:\n%s\n%s", one, eight)
	}
}

// TestRouterAccessLogAndFlight: each proxied request emits one JSON
// access-log line stamped with the shard and cache verdict, and lands
// in the router's flight recorder; the /debug/scope payload validates
// against the pinned schema.
func TestRouterAccessLogAndFlight(t *testing.T) {
	var logBuf syncBuffer
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	r, err := New(Config{Shards: []string{ts.URL}, ProbeInterval: -1, AccessLog: &logBuf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	tracedOptimize(t, front.URL, "log.s", "1") // miss (trace bypasses lookup)
	optimizeVia(t, front.URL, "log.s")         // fills the cache
	optimizeVia(t, front.URL, "log.s")         // hit

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), logBuf.String())
	}
	var first, last scope.AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, lines[0])
	}
	json.Unmarshal([]byte(lines[2]), &last)
	if first.Shard != ts.URL {
		t.Errorf("log shard = %q, want %q", first.Shard, ts.URL)
	}
	if first.TraceID != testTraceID {
		t.Errorf("log trace_id = %q, want inbound %q", first.TraceID, testTraceID)
	}
	if first.Cache != "miss" || last.Cache != "hit" {
		t.Errorf("cache verdicts = %q, %q, want miss then hit", first.Cache, last.Cache)
	}
	if first.Status != 200 || first.RequestID == "" {
		t.Errorf("log line incomplete: %+v", first)
	}

	// Flight recorder: same three requests, newest first, and the
	// payload matches the checked-in schema.
	req := httptest.NewRequest("GET", "/debug/scope/recent", nil)
	rec := httptest.NewRecorder()
	r.DebugHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/debug/scope/recent = %d", rec.Code)
	}
	schema, err := os.ReadFile("../scope/testdata/scope_flight.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(rec.Body.Bytes(), schema); err != nil {
		t.Errorf("flight payload fails schema: %v\n%s", err, rec.Body.String())
	}
	var payload struct {
		Process string               `json:"process"`
		Records []scope.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Process != "maorouter" {
		t.Errorf("process = %q", payload.Process)
	}
	if len(payload.Records) != 3 {
		t.Fatalf("flight recorder holds %d records, want 3", len(payload.Records))
	}
	newest := payload.Records[0]
	if newest.Cache != "hit" || newest.Shard != ts.URL || newest.Status != 200 {
		t.Errorf("newest flight record incomplete: %+v", newest)
	}
	if payload.Records[2].TraceID != testTraceID {
		t.Errorf("traced request's flight record lost the trace ID: %+v", payload.Records[2])
	}
}

// TestRouterRuntimeMetrics: the router's /metrics carries Go runtime
// health series.
func TestRouterRuntimeMetrics(t *testing.T) {
	_, front, _ := testFleet(t, 1, 0)
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m, err := scope.ParseProm(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("router /metrics does not parse: %v", err)
	}
	if v, ok := m.Value("maorouter_go_goroutines"); !ok || v < 1 {
		t.Errorf("maorouter_go_goroutines = %v, %v", v, ok)
	}
	if v, ok := m.Value("maorouter_go_heap_inuse_bytes"); !ok || v <= 0 {
		t.Errorf("maorouter_go_heap_inuse_bytes = %v, %v", v, ok)
	}
	if len(m["maorouter_go_gc_pause_seconds_bucket"]) == 0 {
		t.Error("maorouter_go_gc_pause_seconds histogram missing")
	}
}

// TestSpliceTracePassthrough: malformed or untraced bodies pass
// through spliceTrace untouched.
func TestSpliceTracePassthrough(t *testing.T) {
	hop := scope.Span{TraceID: testTraceID, SpanID: "0011223344556677"}
	for _, body := range []string{
		`not json`,
		`{"assembly":"ret\n"}`,
		`{"trace":"not an array"}`,
	} {
		if got := spliceTrace([]byte(body), hop); string(got) != body {
			t.Errorf("spliceTrace(%q) rewrote the body to %q", body, got)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: handler goroutines write
// the access log concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
