package router

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mao/internal/serve"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics_shape.golden from the current /metrics pages")

// metricsShape reduces a Prometheus text page to what its consumers
// (maotop, maoledger's traced mode, ci.sh) depend on: every HELP and
// TYPE line verbatim, and each distinct series as its name plus its
// label keys in page order. Values and label values are dropped, so
// the shape is stable across runs.
func metricsShape(t *testing.T, page string) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		shape, err := seriesShape(line)
		if err != nil {
			t.Fatalf("%v in %q", err, line)
		}
		if !seen[shape] {
			seen[shape] = true
			out = append(out, shape)
		}
	}
	return out
}

// seriesShape renders one sample line as name{key,key,...}.
func seriesShape(line string) (string, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", fmt.Errorf("no value")
	}
	name := line[:i]
	if line[i] == ' ' {
		return name, nil
	}
	var keys []string
	s := line[i+1:]
	for len(s) > 0 && s[0] != '}' {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return "", fmt.Errorf("malformed label")
		}
		keys = append(keys, s[:eq])
		j := eq + 2
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			return "", fmt.Errorf("unterminated label value")
		}
		s = strings.TrimPrefix(s[j+1:], ",")
	}
	return name + "{" + strings.Join(keys, ",") + "}", nil
}

// TestMetricsExpositionGolden pins the series set of both exposition
// planes — HELP/TYPE lines, series names, label keys and label order —
// after a fixed request sequence through a router and one shard with
// quotas on (so the per-client series appear too).
func TestMetricsExpositionGolden(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QuotaRate: 1000})
	shard := httptest.NewServer(s.Handler())
	t.Cleanup(func() { shard.Close(); s.Close() })
	r, err := New(Config{Shards: []string{shard.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(func() { front.Close(); r.Close() })

	post := func(query, body string, want int) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/optimize"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST /v1/optimize%s = %d, want %d: %s", query, resp.StatusCode, want, b)
		}
	}
	src := strings.ReplaceAll(strings.ReplaceAll(testSource, "\t", `\t`), "\n", `\n`)
	ok := `{"name":"golden.s","source":"` + src + `","spec":"REDTEST:REDMOV"}`
	post("", ok, 200)          // miss
	post("", ok, 200)          // hit
	post("?verify=1", ok, 200) // verify histogram
	post("", `{"source":"`+src+`","spec":"NOSUCHPASS"}`, 400)

	var got bytes.Buffer
	for _, plane := range []string{front.URL, shard.URL} {
		resp, err := http.Get(plane + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, l := range metricsShape(t, string(page)) {
			got.WriteString(l + "\n")
		}
	}

	const golden = "testdata/metrics_shape.golden"
	if *updateMetricsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-metrics-golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics shape differs from %s:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
