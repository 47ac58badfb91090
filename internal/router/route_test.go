package router

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mao/internal/cachekey"
	"mao/internal/scope"
)

// The routing and fleet tests read the routing key and the cache
// verdict header under these short names; the package itself takes the
// key from route and the header name from internal/scope.
func routeKey(req *http.Request, body []byte) string {
	key, _ := route(req, body)
	return key
}

const cacheHeader = scope.CacheHeader

// TestRouteSpellings: route keys an optimize body by the daemon's
// cache key under the daemon's Content-Type rule — every type but
// application/octet-stream is JSON, so a curl -d (form-encoded),
// text/plain or untyped body keys like a JSON one — folding the
// ?explain/?verify spellings in; a machine-code body keys by the
// digest. A trace asked for by the query or by the body's options
// is seen either way.
func TestRouteSpellings(t *testing.T) {
	const src = `"name":"f.s","source":"\tret\n","spec":"REDTEST"`
	plain := cachekey.Key(cachekey.Request{Name: "f.s", Source: "\tret\n", Spec: "REDTEST"})
	verified := cachekey.Key(cachekey.Request{Name: "f.s", Source: "\tret\n", Spec: "REDTEST", Explain: true, Verify: true})
	const digest = ""
	for _, c := range []struct {
		contentType, query, body string
		key                      string // digest: not a cache key
		traced                   bool
	}{
		{"application/json", "", `{` + src + `}`, plain, false},
		{"application/x-www-form-urlencoded", "", `{` + src + `}`, plain, false},
		{"text/plain", "", `{` + src + `}`, plain, false},
		{"", "", `{` + src + `}`, plain, false},
		{"application/octet-stream", "", `{` + src + `}`, digest, false},
		{"application/json", "?explain=1&verify=true", `{` + src + `}`, verified, false},
		{"text/plain", "", `{` + src + `,"options":{"explain":true,"verify":true}}`, verified, false},
		{"application/json", "?no_cache=1", `{` + src + `}`, plain, false},
		{"application/json", "", `{` + src + `,"options":{"no_cache":true}}`, plain, false},
		{"application/json", "?trace=1", `{` + src + `}`, plain, true},
		{"application/json", "?trace=chrome", `{` + src + `}`, plain, true},
		{"application/json", "", `{` + src + `,"options":{"trace":"spans"}}`, plain, true},
		{"text/plain", "", `{` + src + `,"options":{"trace":"chrome"}}`, plain, true},
		{"application/octet-stream", "", `{` + src + `,"options":{"trace":"spans"}}`, digest, false},
		{"application/octet-stream", "?trace=1", "\xc3", digest, true},
		{"application/json", "", `not json`, digest, false},
		{"application/json", "?trace=1", `not json`, digest, true},
	} {
		req := httptest.NewRequest("POST", "/v1/optimize"+c.query, strings.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		key, traced := route(req, []byte(c.body))
		if c.key == digest && (key == plain || key == verified) {
			t.Errorf("Content-Type %q %s %s: keyed by a cache key, want the digest", c.contentType, c.query, c.body)
		} else if c.key != digest && key != c.key {
			t.Errorf("Content-Type %q %s %s: key %s, want the daemon's cache key %s", c.contentType, c.query, c.body, key, c.key)
		}
		if traced != c.traced {
			t.Errorf("Content-Type %q %s %s: traced = %v, want %v", c.contentType, c.query, c.body, traced, c.traced)
		}
	}
}
