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
	"sync/atomic"
	"testing"
	"time"

	"mao/internal/serve"
)

// coalesceFleet boots one real maod shard behind a router, counting
// every HTTP request that actually reaches the shard's /v1/optimize.
func coalesceFleet(t *testing.T, cfg Config) (*Router, *httptest.Server, *atomic.Int64) {
	t.Helper()
	s := serve.New(serve.Config{})
	var shardHits atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/optimize" {
			shardHits.Add(1)
		}
		s.Handler().ServeHTTP(w, req)
	}))
	t.Cleanup(func() { shard.Close(); s.Close() })
	cfg.Shards = []string{shard.URL}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })
	return r, front, &shardHits
}

func postOptimize(t *testing.T, url string, req *serve.OptimizeRequest) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header.Get(cacheHeader)
}

// TestRouterCoalesceSharesOneForward: K concurrent identical optimize
// requests cross the router as ONE shard forward. The leader relays the
// shard's "miss"; every follower replays the buffered response as
// "coalesced" — in the response header, the access log, and the flight
// recorder — and the bodies are byte-identical.
func TestRouterCoalesceSharesOneForward(t *testing.T) {
	const followers = 5
	log := &syncBuffer{}
	r, front, shardHits := coalesceFleet(t, Config{AccessLog: log})
	req := &serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[300]:REDTEST"}

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
			// Let the leader's forward start before the followers join.
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
	if got := shardHits.Load(); got != 1 {
		t.Errorf("shard saw %d forwards, want 1 (coalescing failed)", got)
	}
	if got := r.met.coalesced.Load(); got != followers {
		t.Errorf("maorouter_coalesced_total = %d, want %d", got, followers)
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

// TestRouterCoalesceBypassesTraceAndNoCache: requests that carry
// ?trace= or no_cache never share a forward — a traced response is
// unique to its request, and no_cache explicitly asks for a fresh run.
func TestRouterCoalesceBypassesTraceAndNoCache(t *testing.T) {
	_, front, shardHits := coalesceFleet(t, Config{})
	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[150]:REDTEST"})

	for _, query := range []string{"?trace=1", "?no_cache=1"} {
		shardHits.Store(0)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(front.URL+"/v1/optimize"+query, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.Header.Get(cacheHeader) == "coalesced" {
					t.Errorf("%s request was coalesced", query)
				}
			}()
		}
		wg.Wait()
		if got := shardHits.Load(); got != 2 {
			t.Errorf("%s: shard saw %d forwards, want 2 (bypass failed)", query, got)
		}
	}
}

// TestRouterCoalesceLeaderClientGoneKeepsFollowers: the shared forward
// runs detached from the leader's client — the leader disconnecting
// mid-flight must not kill the answer its followers wait on.
func TestRouterCoalesceLeaderClientGoneKeepsFollowers(t *testing.T) {
	_, front, shardHits := coalesceFleet(t, Config{})
	body, _ := json.Marshal(&serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"})

	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", front.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	leaderDone := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		close(leaderDone)
	}()
	time.Sleep(75 * time.Millisecond)

	type answer struct {
		status  int
		verdict string
	}
	followerDone := make(chan answer, 1)
	go func() {
		st, _, v := postOptimize(t, front.URL, &serve.OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"})
		followerDone <- answer{st, v}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel() // leader's client walks away mid-forward
	<-leaderDone

	select {
	case a := <-followerDone:
		if a.status != 200 || a.verdict != "coalesced" {
			t.Errorf("follower got status %d verdict %q after leader disconnect, want 200 coalesced", a.status, a.verdict)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never answered after leader disconnect")
	}
	if got := shardHits.Load(); got != 1 {
		t.Errorf("shard saw %d forwards, want 1", got)
	}
}
