package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mao/internal/scope"
	"mao/internal/serve"
)

// answered is what a client saw of one request.
type answered struct {
	requestID, traceID, cache string
}

// accessLines decodes every access-log line written so far.
func accessLines(t *testing.T, log *syncBuffer) []scope.AccessRecord {
	t.Helper()
	var out []scope.AccessRecord
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec scope.AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line not JSON: %v\n%s", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// recentFlight reads a debug plane's /debug/scope/recent view.
func recentFlight(t *testing.T, debug http.Handler) []scope.FlightRecord {
	t.Helper()
	rec := httptest.NewRecorder()
	debug.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/scope/recent", nil))
	var view scope.FlightView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/debug/scope/recent: %v\n%s", err, rec.Body.String())
	}
	return view.Records
}

// TestRequestRecordAgreement: a concurrent identical pair through a
// router and a shard, then a repeat. For every request, the X-Mao-Cache
// header, the router's and the shard's access-log lines and both flight
// records agree on request ID, trace ID and cache verdict, and both
// tiers identify the unlabeled client by host alone.
func TestRequestRecordAgreement(t *testing.T) {
	shardLog, routerLog := &syncBuffer{}, &syncBuffer{}
	s := serve.New(serve.Config{AccessLog: shardLog})
	shard := httptest.NewServer(s.Handler())
	t.Cleanup(func() { shard.Close(); s.Close() })
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1, AccessLog: routerLog})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	// The run lingers, so the pair's second request joins the first's
	// run at the shard.
	body, _ := json.Marshal(&serve.OptimizeRequest{Name: "agree.s", Source: testSource, Spec: "SLEEPTEST=ms[300]:REDTEST"})
	post := func() answered {
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return answered{}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("status %d", resp.StatusCode)
		}
		tc, ok := scope.ParseHeader(resp.Header.Get(scope.TraceHeader))
		if !ok {
			t.Errorf("malformed %s %q", scope.TraceHeader, resp.Header.Get(scope.TraceHeader))
		}
		return answered{resp.Header.Get(scope.RequestIDHeader), tc.TraceID, resp.Header.Get(scope.CacheHeader)}
	}

	answers := make([]answered, 2)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() { defer wg.Done(); answers[i] = post() }()
		time.Sleep(75 * time.Millisecond)
	}
	wg.Wait()
	answers = append(answers, post())

	if answers[0].cache != "miss" || answers[1].cache != "coalesced" || answers[2].cache != "hit" {
		t.Fatalf("verdicts %+v, want miss and coalesced, then hit", answers)
	}

	routerLines := map[string]scope.AccessRecord{}
	for _, rec := range accessLines(t, routerLog) {
		routerLines[rec.RequestID] = rec
	}
	shardLines := map[string]scope.AccessRecord{}
	for _, rec := range accessLines(t, shardLog) {
		shardLines[rec.RequestID] = rec
	}
	routerFlight := map[string]scope.FlightRecord{}
	for _, rec := range recentFlight(t, r.DebugHandler()) {
		routerFlight[rec.RequestID] = rec
	}
	shardFlight := map[string]scope.FlightRecord{}
	for _, rec := range recentFlight(t, s.DebugHandler()) {
		shardFlight[rec.RequestID] = rec
	}
	if len(routerLines) != 3 || len(routerFlight) != 3 || len(shardLines) != 3 || len(shardFlight) != 3 {
		t.Fatalf("router %d log lines / %d flight records, shard %d / %d; want 3/3 and 3/3",
			len(routerLines), len(routerFlight), len(shardLines), len(shardFlight))
	}

	for _, a := range answers {
		line, ok := routerLines[a.requestID]
		if !ok || line.TraceID != a.traceID || line.Cache != a.cache {
			t.Errorf("router log %+v disagrees with the answer %+v", line, a)
		}
		fr, ok := routerFlight[a.requestID]
		if !ok || fr.TraceID != a.traceID || fr.Cache != a.cache || fr.Client != "127.0.0.1" {
			t.Errorf("router flight record %+v disagrees with the answer %+v (client want 127.0.0.1)", fr, a)
		}
		sline, ok := shardLines[a.requestID]
		if !ok || sline.TraceID != a.traceID || sline.Cache != a.cache {
			t.Errorf("shard log %+v disagrees with the answer %+v", sline, a)
		}
		sfr, ok := shardFlight[a.requestID]
		if !ok || sfr.TraceID != a.traceID || sfr.Cache != a.cache || sfr.Client != "127.0.0.1" {
			t.Errorf("shard flight record %+v disagrees with the answer %+v (client want 127.0.0.1)", sfr, a)
		}
	}
}
