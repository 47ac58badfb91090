package cachekey

import (
	"net/url"
	"testing"
)

// TestFoldQuery: the query spellings fold into Options — a set flag
// reads 1 or true, a query trace mode replaces the body's — and a
// trace mode is validated whichever spelling set it.
func TestFoldQuery(t *testing.T) {
	for _, c := range []struct {
		query string
		body  OptimizeOptions
		want  OptimizeOptions
		err   string
	}{
		{"", OptimizeOptions{}, OptimizeOptions{}, ""},
		{"explain=1&verify=true", OptimizeOptions{}, OptimizeOptions{Explain: true, Verify: true}, ""},
		{"explain=0&verify=yes", OptimizeOptions{Explain: true}, OptimizeOptions{Explain: true}, ""},
		{"check=1&no_cache=1", OptimizeOptions{}, OptimizeOptions{}, ""},
		{"trace=1", OptimizeOptions{}, OptimizeOptions{Trace: TraceSpans}, ""},
		{"trace=true", OptimizeOptions{}, OptimizeOptions{Trace: TraceSpans}, ""},
		{"trace=spans", OptimizeOptions{}, OptimizeOptions{Trace: TraceSpans}, ""},
		{"trace=chrome", OptimizeOptions{Trace: TraceSpans}, OptimizeOptions{Trace: TraceChrome}, ""},
		{"", OptimizeOptions{Trace: TraceChrome}, OptimizeOptions{Trace: TraceChrome}, ""},
		{"trace=2", OptimizeOptions{}, OptimizeOptions{}, `invalid trace mode "2" (want 1 or chrome)`},
		{"", OptimizeOptions{Trace: "1"}, OptimizeOptions{}, `invalid options.trace "1" (want "spans" or "chrome")`},
		{"trace=1", OptimizeOptions{Trace: "bogus"}, OptimizeOptions{Trace: TraceSpans}, ""},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		r := OptimizeRequest{Options: c.body}
		err = r.FoldQuery(q)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("?%s over %+v: error %v, want %q", c.query, c.body, err, c.err)
			}
			continue
		}
		if err != nil || r.Options != c.want {
			t.Errorf("?%s over %+v: %+v, %v; want %+v", c.query, c.body, r.Options, err, c.want)
		}
	}
}
