package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mao/internal/router"
	"mao/internal/serve"
	"mao/internal/trace"
)

// fleet starts two in-process maod shards behind a router and returns
// the router's URL and the shards' service and debug URLs.
func fleet(t *testing.T) (routerURL string, shards, debugs []string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		dbg := httptest.NewServer(s.DebugHandler())
		t.Cleanup(func() { ts.Close(); dbg.Close(); s.Close() })
		shards = append(shards, ts.URL)
		debugs = append(debugs, dbg.URL)
	}
	r, err := router.New(router.Config{Shards: shards, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(r)
	t.Cleanup(func() { rs.Close(); r.Close() })
	return rs.URL, shards, debugs
}

// TestOnceJSONMatchesSchema: one-shot JSON over a live fleet is the
// document CI validates, shard discovery included.
func TestOnceJSONMatchesSchema(t *testing.T) {
	routerURL, _, debugs := fleet(t)
	body, _ := json.Marshal(serve.OptimizeRequest{
		Source: "\t.text\n\t.type f,@function\nf:\n\tsubl $16, %eax\n\ttestl %eax, %eax\n\tret\n\t.size f,.-f\n",
		Spec:   "REDTEST",
	})
	resp, err := http.Post(routerURL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("optimize through the router: status %d", resp.StatusCode)
	}

	var out bytes.Buffer
	client := &http.Client{Timeout: 5 * time.Second}
	if err := pollOnce(&out, client, routerURL, nil, debugs, true); err != nil {
		t.Fatalf("one-shot poll of a healthy fleet: %v\n%s", err, out.String())
	}
	schema, err := os.ReadFile(filepath.Join("..", "..", "internal", "scope", "testdata", "maotop.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(schema, out.Bytes()); err != nil {
		t.Fatalf("maotop -once -json output violates its schema: %v\n%s", err, out.String())
	}
	var view fleetView
	if err := json.Unmarshal(out.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Router == nil || view.Router.HealthyShards != 2 || len(view.Shards) != 2 {
		t.Fatalf("view of a two-shard fleet: %s", out.String())
	}
	requests := 0.0
	for _, s := range view.Shards {
		if !s.Up || s.Healthy == nil || !*s.Healthy {
			t.Errorf("shard %s: up=%v healthy=%v", s.URL, s.Up, s.Healthy)
		}
		requests += s.Requests
	}
	if requests < 1 || len(view.Slowest) == 0 {
		t.Errorf("the optimize request is missing from the shards' counters or flight records: %s", out.String())
	}
}

// TestOnceFailsOnUnreachableRouter: a router that does not answer
// fails the one-shot poll, both when it is asked for the shard list
// and when the shards are named.
func TestOnceFailsOnUnreachableRouter(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, shards, _ := fleet(t)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, named := range [][]string{nil, shards} {
		var out bytes.Buffer
		err := pollOnce(&out, client, deadURL, named, nil, true)
		if err == nil || !strings.Contains(err.Error(), deadURL) {
			t.Errorf("one-shot poll of an unreachable router (shards %v): err = %v, output %q",
				named, err, out.String())
		}
	}
}
