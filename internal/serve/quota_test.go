package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mao/internal/scope"
)

// postAs sends one optimize request labeled with a client ID and
// returns the status code and Retry-After header.
func postAs(t *testing.T, url, client string, req *OptimizeRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest("POST", url+"/v1/optimize", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	if client != "" {
		hreq.Header.Set("X-Mao-Client", client)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestQuotaIsolatesClients is the tenant-isolation satellite: a client
// that exhausts its bucket is refused with 429 + Retry-After WITHOUT
// consuming a global queue slot or a global-admission reject, and a
// different client is untouched.
func TestQuotaIsolatesClients(t *testing.T) {
	// Refill is effectively frozen (one token per ~3 hours), so the
	// burst is the whole budget and the test is deterministic.
	s, ts := testServer(t, Config{QuotaRate: 0.0001, QuotaBurst: 2})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST", Options: OptimizeOptions{NoCache: true}}

	for i := 0; i < 2; i++ {
		if code, _ := postAs(t, ts.URL, "tenant-a", req); code != 200 {
			t.Fatalf("tenant-a request %d within burst: status = %d", i, code)
		}
	}
	code, retryAfter := postAs(t, ts.URL, "tenant-a", req)
	if code != 429 {
		t.Fatalf("tenant-a over burst: status = %d, want 429", code)
	}
	if retryAfter == "" {
		t.Error("quota 429 lacks Retry-After")
	}

	// The refusal happened UNDER global admission: no queue slot was
	// held, no global reject counted, and the queue is idle.
	if n := s.met.queueRejects.Load(); n != 0 {
		t.Errorf("global queue rejects = %d after a quota 429, want 0", n)
	}
	if n := s.queued.Load(); n != 0 {
		t.Errorf("queued = %d after a quota 429, want 0", n)
	}
	if n := s.quota.rejectsTotal.Load(); n != 1 {
		t.Errorf("quota rejects = %d, want 1", n)
	}

	// Another tenant's bucket is untouched.
	if code, _ := postAs(t, ts.URL, "tenant-b", req); code != 200 {
		t.Errorf("tenant-b blocked by tenant-a's exhaustion: status = %d", code)
	}
}

// TestQuotaRemoteAddrFallback: unlabeled requests are bucketed by
// origin host, so they rate-limit together.
func TestQuotaRemoteAddrFallback(t *testing.T) {
	_, ts := testServer(t, Config{QuotaRate: 0.0001, QuotaBurst: 1})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST", Options: OptimizeOptions{NoCache: true}}
	if code, _ := postAs(t, ts.URL, "", req); code != 200 {
		t.Fatalf("first unlabeled request: status = %d", code)
	}
	if code, _ := postAs(t, ts.URL, "", req); code != 429 {
		t.Errorf("second unlabeled request from the same host: status = %d, want 429", code)
	}
}

// TestQuotaRefills: tokens accrue at QuotaRate, so a refused client
// recovers after waiting.
func TestQuotaRefills(t *testing.T) {
	_, ts := testServer(t, Config{QuotaRate: 200, QuotaBurst: 1})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST", Options: OptimizeOptions{NoCache: true}}
	if code, _ := postAs(t, ts.URL, "c", req); code != 200 {
		t.Fatalf("first: %d", code)
	}
	// Drain whatever refilled during the first request, then assert
	// refusal and recovery.
	for i := 0; i < 3; i++ {
		postAs(t, ts.URL, "c", req)
	}
	code, _ := postAs(t, ts.URL, "c", req)
	if code != 429 && code != 200 {
		t.Fatalf("unexpected status %d", code)
	}
	time.Sleep(50 * time.Millisecond) // 200/s: ~10 tokens, capped at burst 1
	if code, _ := postAs(t, ts.URL, "c", req); code != 200 {
		t.Errorf("after refill window: status = %d, want 200", code)
	}
}

// TestQuotaMetricsExposed: per-client grant/reject counters appear on
// /metrics with the client label.
func TestQuotaMetricsExposed(t *testing.T) {
	_, ts := testServer(t, Config{QuotaRate: 0.0001, QuotaBurst: 1})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST"}
	postAs(t, ts.URL, "tenant-x", req)
	postAs(t, ts.URL, "tenant-x", req) // 429
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	for _, want := range []string{
		`maod_quota_granted_total{client="tenant-x"} 1`,
		`maod_quota_rejects_total{client="tenant-x"} 1`,
		"maod_quota_clients 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQuotaPacesArchives: an archive from an over-quota client is not
// refused mid-stream — its units are paced at the refill rate and all
// complete.
func TestQuotaPacesArchives(t *testing.T) {
	_, ts := testServer(t, Config{QuotaRate: 500, QuotaBurst: 1})
	var units []archiveUnit
	for i := 0; i < 4; i++ {
		units = append(units, archiveUnit{name: fmt.Sprintf("u%d.s", i), source: testSource})
	}
	records, trailer, code := postArchive(t, ts.URL, buildArchive(units), "?spec=REDTEST&no_cache=1")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if trailer == nil || trailer.OK != len(units) {
		t.Fatalf("trailer = %+v, want all %d OK", trailer, len(units))
	}
	for _, rec := range records {
		if rec.Status != 200 {
			t.Errorf("unit %d status = %d (%s)", rec.Index, rec.Status, rec.Error)
		}
	}
}

// TestQuotaDisabledIsFree: the default config has no quota layer — a
// burst of labeled requests is never 429'd by quota (the global queue
// is the only limiter).
func TestQuotaDisabledIsFree(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST"}
	for i := 0; i < 20; i++ {
		if code, _ := postAs(t, ts.URL, "hammer", req); code != 200 {
			t.Fatalf("request %d: status = %d with quotas disabled", i, code)
		}
	}
}

// TestQuotaClientLabelsRoundTrip: client IDs from X-Mao-Client reach
// /metrics as label values any text-format parser reads back — a tab,
// a non-ASCII character and invalid UTF-8 (which becomes U+FFFD) stay
// distinct tenants, none colliding with the client named "atb".
func TestQuotaClientLabelsRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{QuotaRate: 1000, QuotaBurst: 16})
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST"}
	want := map[string]string{ // sent → read back
		"a\tb":         "a\tb",
		"x\xffy":       "x\uFFFDy",
		"nbsp\u00a0z":  "nbsp\u00a0z",
		"atb":          "atb",
		`q"uote\slash`: `q"uote\slash`,
	}
	for id := range want {
		if code, _ := postAs(t, ts.URL, id, req); code != 200 {
			t.Fatalf("client %q: status %d", id, code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := scope.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	got := map[string]float64{}
	for _, s := range m["maod_quota_granted_total"] {
		got[s.Labels["client"]] += s.Value
	}
	for id, label := range want {
		if got[label] != 1 {
			t.Errorf("client %q: granted[%q] = %v, want 1 (all labels: %v)", id, label, got[label], got)
		}
	}
}
