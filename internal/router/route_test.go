package router

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mao/internal/scope"
)

// The routing and coalescing tests read the routing key and the cache
// verdict header under these short names; the package itself takes the
// key from route and the header name from internal/scope.
func routeKey(req *http.Request, body []byte) string {
	key, _ := route(req, body)
	return key
}

const cacheHeader = scope.CacheHeader

// TestRouteSharedSpellings: one decode of the body decides whether an
// optimize request may share a forward, honoring the no_cache and
// trace options in both their query and body spellings; a body that
// does not decode shares unless the query says otherwise.
func TestRouteSharedSpellings(t *testing.T) {
	const src = `"source":"\tret\n"`
	for _, c := range []struct {
		query, body string
		shared      bool
	}{
		{"", `{` + src + `}`, true},
		{"?explain=1&verify=true", `{` + src + `}`, true},
		{"?trace=1", `{` + src + `}`, false},
		{"?trace=chrome", `{` + src + `}`, false},
		{"?no_cache=1", `{` + src + `}`, false},
		{"?no_cache=true", `{` + src + `}`, false},
		{"?no_cache=0", `{` + src + `}`, true},
		{"", `{` + src + `,"options":{"no_cache":true}}`, false},
		{"", `{` + src + `,"options":{"trace":"spans"}}`, false},
		{"", `{` + src + `,"options":{"check":true,"no_cache":false}}`, true},
		{"", `not json`, true},
		{"?no_cache=1", `not json`, false},
	} {
		req := httptest.NewRequest("POST", "/v1/optimize"+c.query, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		if _, shared := route(req, []byte(c.body)); shared != c.shared {
			t.Errorf("%s %s: shared = %v, want %v", c.query, c.body, shared, c.shared)
		}
	}
}
