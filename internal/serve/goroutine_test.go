package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestGoroutinesReturnToBaseline drives the handler in-process, with no
// listener: one miss, two coalesced identical requests, a 3-unit
// archive and a request abandoned by its deadline. After Close, the
// goroutine count must fall back to what it was before New: no worker,
// archive submitter, archive waiter or flight outlives the server.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	h := s.Handler()
	post := func(path, contentType string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		h.ServeHTTP(rec, r)
		return rec
	}
	optimize := func(req *OptimizeRequest) (int, string) {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		rec := post("/v1/optimize", "application/json", body)
		return rec.Code, rec.Header().Get(cacheHeader)
	}

	if code, verdict := optimize(&OptimizeRequest{Source: testSource, Spec: "REDTEST"}); code != 200 || verdict != "miss" {
		t.Fatalf("first request: %d %q, want 200 miss", code, verdict)
	}

	// The second identical request arrives while the first one's run
	// sleeps on a worker, so it joins that run.
	pair := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"}
	answers := make(chan string, 2)
	answer := func() {
		code, verdict := optimize(pair)
		answers <- fmt.Sprint(code, " ", verdict)
	}
	go answer()
	waitFor(t, "the leader's run on a worker", func() bool { return s.inflight.Load() == 1 })
	go answer()
	got := []string{<-answers, <-answers}
	slices.Sort(got)
	if want := []string{"200 coalesced", "200 miss"}; !slices.Equal(got, want) {
		t.Fatalf("identical pair answered %v, want %v", got, want)
	}

	units := []archiveUnit{{"a.s", testSource}, {"b.s", testSource}, {"c.s", testSource}}
	rec := post("/v1/optimize/archive?spec=REDTEST:REDMOV", "application/x-mao-archive", buildArchive(units))
	records, trailer := decodeStream(t, rec.Body)
	if rec.Code != 200 || len(records) != 3 || trailer == nil || trailer.OK != 3 {
		t.Fatalf("archive: status %d, %d records, trailer %+v", rec.Code, len(records), trailer)
	}

	if code, _ := optimize(&OptimizeRequest{
		Source: testSource, Spec: "SLEEPTEST=ms[2000]",
		Options: OptimizeOptions{DeadlineMS: 50},
	}); code != 504 {
		t.Fatalf("request past its deadline: status %d, want 504", code)
	}

	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before New:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(time.Millisecond)
	}
}
