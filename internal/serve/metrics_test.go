package serve

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"mao/internal/scope"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Two identical requests: one computed, one result-cache hit.
	req := &OptimizeRequest{Source: testSource, Spec: "REDTEST:REDMOV"}
	postOptimize(t, ts.URL, req)
	postOptimize(t, ts.URL, req)

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`maod_requests_total{code="200"} 2`,
		"maod_request_duration_seconds_bucket{le=\"+Inf\"} 2",
		"maod_request_duration_seconds_count 2",
		"maod_request_duration_seconds_sum ",
		"maod_queue_depth 0",
		"maod_inflight 0",
		"maod_queue_rejects_total 0",
		"maod_batches_total 1",
		"maod_batch_jobs_total 1",
		"maod_result_cache_hits_total 1",
		"maod_result_cache_misses_total 1",
		"maod_result_cache_entries 1",
		`maod_pass_counters_total{pass="REDTEST",key="removed"} 1`,
		"maod_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}

	// Every non-comment line is "name[{labels}] value".
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEIna]+$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	_, ts := testServer(t, Config{})
	for i := 0; i < 5; i++ {
		postOptimize(t, ts.URL, &OptimizeRequest{
			Source: testSource, Options: OptimizeOptions{NoCache: true},
		})
	}
	text := scrape(t, ts.URL)
	// Bucket counts must be monotonically non-decreasing in le order.
	re := regexp.MustCompile(`maod_request_duration_seconds_bucket\{le="[^"]+"\} (\d+)`)
	last := -1
	n := 0
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v := 0
		for _, c := range m[1] {
			v = v*10 + int(c-'0')
		}
		if v < last {
			t.Errorf("histogram not cumulative: %d after %d", v, last)
		}
		last = v
		n++
	}
	if n != len(scope.LatencyBuckets)+1 {
		t.Errorf("bucket lines = %d, want %d", n, len(scope.LatencyBuckets)+1)
	}
}

func TestMetricsCountsRejectsAndErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	postOptimize(t, ts.URL, &OptimizeRequest{Source: testSource, Spec: "NOSUCHPASS"})
	text := scrape(t, ts.URL)
	if !strings.Contains(text, `maod_requests_total{code="400"} 1`) {
		t.Errorf("400 not counted:\n%s", text)
	}
}
