package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mao/internal/pass"
	"mao/internal/scope"
)

// The error body and the cache-verdict header are defined once for
// both servers, in internal/scope; the tests read them under the
// package's short names.
type errorResponse = scope.ErrorResponse

const cacheHeader = scope.CacheHeader

// sleepPass blocks for ms[N] milliseconds (default 10), honoring the
// run context — the knob the admission, deadline and drain tests use
// to hold workers busy deterministically.
type sleepPass struct{}

func (sleepPass) Name() string        { return "SLEEPTEST" }
func (sleepPass) Description() string { return "test pass that sleeps" }

// Effectful: the sleep is the point — memoizing it away would let
// repeat content skip the delay the timing tests depend on.
func (sleepPass) Effectful() bool { return true }
func (sleepPass) RunUnit(ctx *pass.Ctx) (bool, error) {
	d := time.Duration(ctx.Opts.Int("ms", 10)) * time.Millisecond
	select {
	case <-time.After(d):
		return false, nil
	case <-ctx.Context().Done():
		return false, ctx.Context().Err()
	}
}

func init() {
	if pass.Lookup("SLEEPTEST") == nil {
		pass.Register(func() pass.Pass { return sleepPass{} })
	}
}

const testSource = `	.text
	.type f,@function
f:
	subl $16, %r15d
	testl %r15d, %r15d
	je .Lz
	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
.Lz:
	ret
	.size f,.-f
`

// testServer boots a Server plus an httptest front end and tears both
// down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postOptimize sends one request and decodes the response body.
func postOptimize(t *testing.T, url string, req *OptimizeRequest) (int, *OptimizeResponse, *errorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
		return resp.StatusCode, &out, nil
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %d body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &out
}

func TestOptimizeBasic(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, out, _ := postOptimize(t, ts.URL, &OptimizeRequest{
		Source: testSource, Spec: "REDTEST:REDMOV",
	})
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if strings.Contains(out.Assembly, "testl") {
		t.Error("redundant test survived the pipeline")
	}
	if !strings.Contains(out.Assembly, "movq\t%rdx, %rcx") {
		t.Errorf("REDMOV rewrite missing:\n%s", out.Assembly)
	}
	if out.Stats["REDTEST"]["removed"] != 1 {
		t.Errorf("stats = %v", out.Stats)
	}
	if out.Cached {
		t.Error("first request reported cached")
	}
}

func TestOptimizeEmptySpecNormalizes(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, out, _ := postOptimize(t, ts.URL, &OptimizeRequest{Source: testSource})
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(out.Assembly, "subl\t$16, %r15d") {
		t.Errorf("canonical emission missing:\n%s", out.Assembly)
	}
}

func TestOptimizeCheckDiagnostics(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, out, _ := postOptimize(t, ts.URL, &OptimizeRequest{
		Name: "my.s", Source: testSource,
		Options: OptimizeOptions{Check: true},
	})
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Diags == nil {
		t.Fatal("check requested but diags absent")
	}
	found := false
	for _, d := range out.Diags {
		if d.File != "my.s" {
			t.Errorf("diag file = %q, want my.s", d.File)
		}
		if d.Rule == "reg-uninit" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a reg-uninit warning for %%r15d, got %v", out.Diags)
	}
}

func TestOptimizeValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		req  *OptimizeRequest
		want int
	}{
		{"missing source", &OptimizeRequest{Spec: "REDTEST"}, 400},
		{"unknown pass", &OptimizeRequest{Source: testSource, Spec: "NOSUCHPASS"}, 400},
		{"ASM rejected", &OptimizeRequest{Source: testSource, Spec: "REDTEST:ASM"}, 400},
		{"dump rejected", &OptimizeRequest{Source: testSource, Spec: "REDTEST=dump_after[x]"}, 400},
		{"negative deadline", &OptimizeRequest{Source: testSource, Options: OptimizeOptions{DeadlineMS: -1}}, 400},
		{"unparsable source", &OptimizeRequest{Source: "\tthisisnotx86 %zz9, %qq3\n"}, 422},
	}
	for _, c := range cases {
		code, _, errResp := postOptimize(t, ts.URL, c.req)
		if code != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, code, c.want)
		} else if errResp.Error == "" {
			t.Errorf("%s: empty error body", c.name)
		}
	}
	// Malformed JSON and wrong method/path.
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status = %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != 405 {
		t.Errorf("GET /v1/optimize: status = %d, want 405", getResp.StatusCode)
	}
}

func TestOptimizeBodyTooLarge(t *testing.T) {
	_, ts := testServer(t, Config{MaxSourceBytes: 128})
	code, _, errResp := postOptimize(t, ts.URL, &OptimizeRequest{Source: testSource})
	if code != 413 {
		t.Fatalf("status = %d, want 413", code)
	}
	if !strings.Contains(errResp.Error, "exceeds") {
		t.Errorf("error = %q", errResp.Error)
	}
}

func TestResultCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST"}
	_, first, _ := postOptimize(t, ts.URL, req)
	code, second, _ := postOptimize(t, ts.URL, req)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if second.Assembly != first.Assembly {
		t.Error("cached assembly differs from computed")
	}
	if h := s.results.hits.Load(); h != 1 {
		t.Errorf("result cache hits = %d, want 1", h)
	}
	// A no_cache request bypasses the cache but still answers.
	req.Options.NoCache = true
	_, third, _ := postOptimize(t, ts.URL, req)
	if third.Cached {
		t.Error("no_cache request served from cache")
	}
	// A different spec misses.
	_, fourth, _ := postOptimize(t, ts.URL, &OptimizeRequest{Source: testSource, Spec: "REDMOV"})
	if fourth.Cached {
		t.Error("different spec hit the cache")
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionControl(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	type result struct {
		code int
	}
	results := make(chan result, 2)
	slow := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]"}
	go func() {
		code, _, _ := postOptimize(t, ts.URL, slow)
		results <- result{code}
	}()
	waitFor(t, "first job in flight", func() bool { return s.inflight.Load() == 1 })
	go func() {
		// Vary no_cache so the second request misses the result cache.
		code, _, _ := postOptimize(t, ts.URL, &OptimizeRequest{
			Source: testSource, Spec: "SLEEPTEST=ms[400]",
			Options: OptimizeOptions{NoCache: true},
		})
		results <- result{code}
	}()
	waitFor(t, "second job queued", func() bool { return s.queued.Load() == 1 })

	// Queue is now full: the next request must be turned away with 429
	// and a Retry-After hint, without waiting.
	body, _ := json.Marshal(&OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]", Name: "third.s"})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if s.met.queueRejects.Load() == 0 {
		t.Error("queue reject not counted")
	}
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != 200 {
			t.Errorf("admitted request %d finished with %d", i, r.code)
		}
	}
}

func TestRequestDeadline(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	code, _, errResp := postOptimize(t, ts.URL, &OptimizeRequest{
		Source: testSource, Spec: "SLEEPTEST=ms[2000]",
		Options: OptimizeOptions{DeadlineMS: 60},
	})
	if code != 504 {
		t.Fatalf("status = %d, want 504", code)
	}
	if !strings.Contains(errResp.Error, "deadline") {
		t.Errorf("error = %q", errResp.Error)
	}
}

func TestDeadlineWhileQueuedSkipsExecution(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	done := make(chan int, 1)
	go func() {
		code, _, _ := postOptimize(t, ts.URL, &OptimizeRequest{
			Source: testSource, Spec: "SLEEPTEST=ms[300]",
		})
		done <- code
	}()
	waitFor(t, "slow job in flight", func() bool { return s.inflight.Load() == 1 })

	// This request's deadline expires while it waits for the only
	// worker; it must come back 504 and never occupy the worker.
	code, _, _ := postOptimize(t, ts.URL, &OptimizeRequest{
		Source: testSource, Spec: "SLEEPTEST=ms[300]",
		Options: OptimizeOptions{DeadlineMS: 50, NoCache: true},
	})
	if code != 504 {
		t.Fatalf("queued request status = %d, want 504", code)
	}
	if c := <-done; c != 200 {
		t.Errorf("slow request status = %d", c)
	}
	waitFor(t, "queue to drain", func() bool { return s.queued.Load() == 0 })
}

func TestHealthAndReady(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
	}
	s.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("readyz after Close = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Errorf("healthz after Close = %d, want 200 (process is alive)", hresp.StatusCode)
	}
}

func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := testServer(t, Config{AccessLog: &buf})
	postOptimize(t, ts.URL, &OptimizeRequest{Source: testSource})
	http.Get(ts.URL + "/healthz")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("access log lines = %d, want >= 2:\n%s", len(lines), buf.String())
	}
	var rec scope.AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Method != "POST" || rec.Path != "/v1/optimize" || rec.Status != 200 {
		t.Errorf("access record = %+v", rec)
	}
	if rec.Time == "" || rec.Remote == "" {
		t.Errorf("access record missing fields: %+v", rec)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access log.
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

func TestDrainCompletesInFlight(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	results := make(chan int, 3)
	submit := func(name string) {
		code, _, _ := postOptimize(t, ts.URL, &OptimizeRequest{
			Name: name, Source: testSource, Spec: "SLEEPTEST=ms[150]",
		})
		results <- code
	}
	go submit("a.s")
	waitFor(t, "first job in flight", func() bool { return s.inflight.Load() == 1 })
	go submit("b.s")
	go submit("c.s")
	waitFor(t, "two jobs queued", func() bool { return s.queued.Load() == 2 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "drain to begin", s.Draining)

	// Every admitted request completes successfully: zero dropped.
	for i := 0; i < 3; i++ {
		if code := <-results; code != 200 {
			t.Errorf("in-flight request %d finished with %d during drain", i, code)
		}
	}
	<-closed

	// Admission is closed: a post-drain request is refused with 503.
	code, _, errResp := postOptimize(t, ts.URL, &OptimizeRequest{
		Name: "late.s", Source: testSource, Spec: "SLEEPTEST=ms[1]",
	})
	if code != 503 {
		t.Errorf("post-drain status = %d, want 503", code)
	}
	if errResp != nil && !strings.Contains(errResp.Error, "draining") {
		t.Errorf("post-drain error = %q", errResp.Error)
	}
	if s.queued.Load() != 0 || s.inflight.Load() != 0 {
		t.Errorf("residual work after drain: queued=%d inflight=%d",
			s.queued.Load(), s.inflight.Load())
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := New(Config{})
	s.Close()
	s.Close()
}
