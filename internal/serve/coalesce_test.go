package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// postRaw sends one optimize request and returns status, decoded body
// (nil on error statuses) and the X-Mao-Cache verdict.
func postRaw(t *testing.T, url string, req *OptimizeRequest) (int, *OptimizeResponse, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	verdict := resp.Header.Get(cacheHeader)
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, nil, verdict
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	return resp.StatusCode, &out, verdict
}

// TestCoalesceSharesOneRun: K concurrent identical misses execute ONE
// pipeline run — one leader ("miss"), K-1 followers ("coalesced") that
// consume no queue slot — and every caller gets the identical answer.
// The result cache is disabled so only coalescing can deduplicate.
func TestCoalesceSharesOneRun(t *testing.T) {
	const followers = 6
	s, ts := testServer(t, Config{ResultCacheEntries: -1})
	req := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[250]:REDTEST"}

	type answer struct {
		status  int
		resp    *OptimizeResponse
		verdict string
	}
	answers := make([]answer, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp, v := postRaw(t, ts.URL, req)
			answers[i] = answer{st, resp, v}
		}(i)
		if i == 0 {
			// Let the leader admit before the followers arrive.
			time.Sleep(50 * time.Millisecond)
		}
	}
	wg.Wait()

	misses, coalesced := 0, 0
	for i, a := range answers {
		if a.status != 200 {
			t.Fatalf("caller %d: status %d", i, a.status)
		}
		if a.resp.Assembly != answers[0].resp.Assembly {
			t.Errorf("caller %d: assembly differs from the leader's", i)
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
	if got := s.met.batchJobsTotal.Load(); got != 1 {
		t.Errorf("pipeline executed %d jobs, want 1 (coalescing failed to share the run)", got)
	}
	if got := s.met.coalescedTotal.Load(); got != followers {
		t.Errorf("maod_coalesced_total = %d, want %d", got, followers)
	}
}

// TestCoalesceBypassesTraceAndNoCache: concurrent identical requests
// that carry ?trace= or no_cache never share a run — each takes an
// unjoinable call and executes its own job.
func TestCoalesceBypassesTraceAndNoCache(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		opts        OptimizeOptions
	}{
		{"trace", "?trace=1", OptimizeOptions{}},
		{"no_cache", "", OptimizeOptions{NoCache: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, Config{})
			body, _ := json.Marshal(&OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[250]:REDTEST", Options: tc.opts})
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/optimize"+tc.query, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if v := resp.Header.Get(cacheHeader); resp.StatusCode != 200 || v != "miss" {
						t.Errorf("status %d verdict %q, want 200 miss", resp.StatusCode, v)
					}
				}()
				if i == 0 {
					// The second request arrives while the first runs.
					time.Sleep(50 * time.Millisecond)
				}
			}
			wg.Wait()
			if got := s.met.batchJobsTotal.Load(); got != 2 {
				t.Errorf("pipeline executed %d jobs, want 2 (one per request)", got)
			}
			if got := s.met.coalescedTotal.Load(); got != 0 {
				t.Errorf("maod_coalesced_total = %d, want 0", got)
			}
		})
	}
}

// TestNoCacheAbandonFreesWorker: a client that walks away from its
// no_cache request cancels that request's run — it is the call's only
// waiter — so the worker is free long before the pass would finish.
func TestNoCacheAbandonFreesWorker(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	body, _ := json.Marshal(&OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[10000]:REDTEST",
		Options: OptimizeOptions{NoCache: true}})

	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitFor(t, "the no_cache run to start", func() bool { return s.inflight.Load() == 1 })
	cancel()
	<-done

	// waitFor gives up after 5s, half the run's 10s sleep.
	waitFor(t, "abandoned no_cache run to unwind", func() bool {
		return s.inflight.Load() == 0
	})
}

// TestCoalesceCloseMidFlight: Server.Close while a coalesced flight is
// running lets the admitted run finish (drain semantics), so every
// waiter — leader and followers — receives the shared 200. Nobody
// hangs, and Close returns.
func TestCoalesceCloseMidFlight(t *testing.T) {
	const followers = 4
	s, ts := testServer(t, Config{ResultCacheEntries: -1})
	req := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"}

	statuses := make([]int, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _ = postRaw(t, ts.URL, req)
		}(i)
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	time.Sleep(150 * time.Millisecond) // all waiters joined, run mid-sleep

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against the coalesced flight")
	}
	for i, st := range statuses {
		// The admitted run drains to completion: everyone shares its 200.
		// (503 would also be clean, but drain semantics guarantee better.)
		if st != 200 {
			t.Errorf("caller %d: status %d after mid-flight Close", i, st)
		}
	}
}

// TestCoalesceLeaderRefusalFansOut: when the leader cannot admit (the
// server is draining), it publishes the refusal — followers get a
// clean 503 immediately instead of hanging on a run that never starts.
func TestCoalesceLeaderRefusalFansOut(t *testing.T) {
	s, ts := testServer(t, Config{ResultCacheEntries: -1})
	s.Close() // draining: admission refuses everything
	st, _, _ := postRaw(t, ts.URL, &OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	if st != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 from a draining leader", st)
	}
}

// TestCoalesceWaiterCancelDoesNotAbort: one waiter canceling its own
// request must not abort the shared run — the remaining callers still
// get their 200. Exercises the refcount: only the LAST waiter leaving
// cancels.
func TestCoalesceWaiterCancelDoesNotAbort(t *testing.T) {
	s, ts := testServer(t, Config{ResultCacheEntries: -1})
	req := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"}
	body, _ := json.Marshal(req)

	// Leader admits the run.
	leaderDone := make(chan int, 1)
	go func() {
		st, _, _ := postRaw(t, ts.URL, req)
		leaderDone <- st
	}()
	time.Sleep(50 * time.Millisecond)

	// A follower joins, then cancels mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	followerDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		followerDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	<-followerDone

	// The leader's run was NOT aborted by the follower's cancellation.
	select {
	case st := <-leaderDone:
		if st != 200 {
			t.Errorf("leader status = %d after follower cancel, want 200", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader never answered")
	}
	if got := s.met.coalescedTotal.Load(); got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
}

// TestCoalesceLeaderCancelKeepsFollowers: the run is detached from the
// LEADER's context too — the leader's client disconnecting must not
// kill the run its followers are waiting on.
func TestCoalesceLeaderCancelKeepsFollowers(t *testing.T) {
	_, ts := testServer(t, Config{ResultCacheEntries: -1})
	req := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[400]:REDTEST"}
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	leaderDone := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		close(leaderDone)
	}()
	time.Sleep(50 * time.Millisecond)

	followerDone := make(chan answerPair, 1)
	go func() {
		st, _, v := postRaw(t, ts.URL, req)
		followerDone <- answerPair{st, v}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel() // leader's client walks away mid-run
	<-leaderDone

	select {
	case a := <-followerDone:
		if a.status != 200 || a.verdict != "coalesced" {
			t.Errorf("follower got status %d verdict %q after leader cancel, want 200 coalesced", a.status, a.verdict)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never answered after leader cancel")
	}
}

type answerPair struct {
	status  int
	verdict string
}

// TestCoalesceAllWaitersLeaveCancelsRun: when every waiter abandons
// the flight, the shared run is canceled instead of burning a worker
// for nobody.
func TestCoalesceAllWaitersLeaveCancelsRun(t *testing.T) {
	s, ts := testServer(t, Config{ResultCacheEntries: -1, Workers: 1})
	req := &OptimizeRequest{Source: testSource, Spec: "SLEEPTEST=ms[5000]:REDTEST"}
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	time.Sleep(100 * time.Millisecond) // the run is mid-sleep
	cancel()
	<-done

	// The canceled run unwinds promptly (well before its 5s sleep).
	waitFor(t, "abandoned coalesced run to unwind", func() bool {
		return s.inflight.Load() == 0
	})
}
