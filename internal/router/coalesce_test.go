package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mao/internal/serve"
)

// oneShardFleet boots one real maod shard behind a router.
func oneShardFleet(t *testing.T, shardCfg serve.Config, cfg Config) (*Router, *httptest.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(shardCfg)
	shard := httptest.NewServer(s.Handler())
	t.Cleanup(func() { shard.Close(); s.Close() })
	cfg.Shards = []string{shard.URL}
	cfg.ProbeInterval = -1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })
	return r, front, shard
}

func postOptimize(t *testing.T, url string, req *serve.OptimizeRequest) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, "", ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header.Get(cacheHeader)
}

// shardMetric reads one unlabeled series from a shard's /metrics.
func shardMetric(t *testing.T, shardURL, series string) string {
	t.Helper()
	resp, err := http.Get(shardURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return metricValue(string(b), series)
}

// TestRouterCoalesceSharesOneRun: K concurrent identical optimize
// requests through the router cost the fleet ONE pipeline run — the
// shard coalesces them. The router relays the shard's verdicts, one
// "miss" and K-1 "coalesced", in the response header, its access log
// and its flight recorder, and every body is byte-identical.
func TestRouterCoalesceSharesOneRun(t *testing.T) {
	const followers = 5
	log := &syncBuffer{}
	r, front, shard := oneShardFleet(t, serve.Config{}, Config{AccessLog: log})
	req := &serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[300]:REDTEST"}
	jobsBefore := shardMetric(t, shard.URL, "maod_batch_jobs_total")

	type answer struct {
		status  int
		body    string
		verdict string
	}
	answers := make([]answer, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, body, v := postOptimize(t, front.URL, req)
			answers[i] = answer{st, body, v}
		}(i)
		if i == 0 {
			// Let the leader's run start before the followers join.
			time.Sleep(75 * time.Millisecond)
		}
	}
	wg.Wait()

	misses, coalesced := 0, 0
	for i, a := range answers {
		if a.status != 200 {
			t.Fatalf("caller %d: status %d: %s", i, a.status, a.body)
		}
		if a.body != answers[0].body {
			t.Errorf("caller %d: body differs from the leader's", i)
		}
		switch a.verdict {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("caller %d: verdict %q", i, a.verdict)
		}
	}
	if misses != 1 || coalesced != followers {
		t.Errorf("verdicts: %d miss / %d coalesced, want 1/%d", misses, coalesced, followers)
	}
	if before, after := jobsBefore, shardMetric(t, shard.URL, "maod_batch_jobs_total"); before != "0" || after != "1" {
		t.Errorf("maod_batch_jobs_total went %s -> %s, want 0 -> 1 (one pipeline run)", before, after)
	}
	if n := strings.Count(log.String(), `"cache":"coalesced"`); n != followers {
		t.Errorf("access log has %d coalesced records, want %d:\n%s", n, followers, log.String())
	}
	recorded := 0
	for _, rec := range r.flight.Recent() {
		if rec.Cache == "coalesced" {
			recorded++
		}
	}
	if recorded != followers {
		t.Errorf("flight recorder has %d coalesced records, want %d", recorded, followers)
	}
}

// TestRouterClientGoneFreesShardWorker: an optimize request whose
// client gives up mid-run cancels its hop, and the shard's last-waiter
// rule then cancels the run: the shard's only worker is free again
// within 5 s, not after the run's 10 s. The shard that answered
// nothing is not marked down for it.
func TestRouterClientGoneFreesShardWorker(t *testing.T) {
	log := &syncBuffer{}
	r, front, shard := oneShardFleet(t, serve.Config{Workers: 1}, Config{AccessLog: log})
	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[10000]"})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, _ := http.NewRequestWithContext(ctx, "POST", front.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	waitFor := func(what string, within time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(within)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s not reached within %v", what, within)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("the run to start", 5*time.Second, func() bool {
		return shardMetric(t, shard.URL, "maod_inflight") == "1"
	})
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the abandoned request answered")
	}
	waitFor("the shard's worker to be freed", 5*time.Second, func() bool {
		return shardMetric(t, shard.URL, "maod_inflight") == "0"
	})
	if !r.backends[0].isHealthy() {
		t.Error("a client giving up marked its shard down")
	}
	waitFor("the router's access-log line", 5*time.Second, func() bool {
		return strings.Contains(log.String(), "request abandoned")
	})
}
