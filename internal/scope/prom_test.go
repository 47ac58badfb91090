package scope

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const promPage = `# HELP maod_requests_total Requests by endpoint and status.
# TYPE maod_requests_total counter
maod_requests_total{path="/v1/optimize",status="200"} 42
maod_requests_total{path="/v1/optimize",status="429"} 3
maod_queue_depth 7
maod_latency_seconds_bucket{le="0.001"} 10
maod_latency_seconds_bucket{le="0.01"} 90
maod_latency_seconds_bucket{le="0.1"} 100
maod_latency_seconds_bucket{le="+Inf"} 100
maod_latency_seconds_sum 1.5
maod_latency_seconds_count 100
weird_label{msg="a \"quoted\" value, with commas"} 1
`

func TestParseProm(t *testing.T) {
	m, err := ParseProm(strings.NewReader(promPage))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("maod_queue_depth"); !ok || v != 7 {
		t.Fatalf("queue_depth = %v ok=%v", v, ok)
	}
	if v, ok := m.Labeled("maod_requests_total", map[string]string{"status": "429"}); !ok || v != 3 {
		t.Fatalf("429 total = %v ok=%v", v, ok)
	}
	if _, ok := m.Labeled("maod_requests_total", map[string]string{"status": "500"}); ok {
		t.Fatal("found nonexistent label set")
	}
	if v, ok := m.Labeled("weird_label", nil); !ok || v != 1 {
		t.Fatalf("weird_label = %v ok=%v", v, ok)
	}
	if m["weird_label"][0].Labels["msg"] != `a "quoted" value, with commas` {
		t.Fatalf("escaped label = %q", m["weird_label"][0].Labels["msg"])
	}

	// Quantiles: p50 ranks at 50 of 100 → inside the (0.001, 0.01]
	// bucket, interpolated.
	p50, ok := m.Quantile("maod_latency_seconds", nil, 0.5)
	if !ok || p50 <= 0.001 || p50 > 0.01 {
		t.Fatalf("p50 = %v ok=%v", p50, ok)
	}
	want := 0.001 + (0.01-0.001)*40/80
	if math.Abs(p50-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", p50, want)
	}
	p99, ok := m.Quantile("maod_latency_seconds", nil, 0.99)
	if !ok || p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("p99 = %v ok=%v", p99, ok)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	bad := []string{
		"metric_name\n",        // no value
		"metric 1 2 3\n",       // too many fields
		`m{le="0.1} 1` + "\n",  // unterminated quote
		"m{le=0.1} 1\n",        // unquoted label
		"m notanumber\n",       // bad value
		`{le="0.1"} 1` + "\n",  // missing name
		`m{a="x\ty"} 1` + "\n", // an escape the text format does not define
		`m{a="x\u00a0"} 1` + "\n",
	}
	for _, page := range bad {
		if _, err := ParseProm(strings.NewReader(page)); err == nil {
			t.Errorf("ParseProm(%q) accepted", page)
		}
	}
}

func TestWriteRuntimeMetricsParses(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf, "maod")
	m, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("runtime exposition does not parse: %v\n%s", err, buf.String())
	}
	if v, ok := m.Value("maod_go_goroutines"); !ok || v < 1 {
		t.Fatalf("goroutines = %v ok=%v", v, ok)
	}
	if v, ok := m.Value("maod_go_heap_inuse_bytes"); !ok || v <= 0 {
		t.Fatalf("heap_inuse = %v ok=%v", v, ok)
	}
	// The pause histogram must be present and cumulative.
	buckets := m["maod_go_gc_pause_seconds_bucket"]
	if len(buckets) != len(gcPauseBounds)+1 {
		t.Fatalf("pause buckets = %d, want %d", len(buckets), len(gcPauseBounds)+1)
	}
	prev := -1.0
	for _, b := range buckets {
		if b.Value < prev {
			t.Fatalf("pause histogram not cumulative: %+v", buckets)
		}
		prev = b.Value
	}
}
