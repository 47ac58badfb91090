package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"mao/internal/router"
	"mao/internal/serve"
)

// shards is the fleet size: the deployed path is maorouter in front
// of two maod shards.
const shards = 2

// connections is the closed loop's client count: each connection
// sends its next request only after the previous reply arrived, as a
// build's compile steps do.
const connections = 2

// fleet is one in-process deployment: maod shards and a maorouter,
// each behind its own loopback HTTP listener, configured with the
// cmd/maod and cmd/maorouter defaults and access logs discarded.
type fleet struct {
	shards    []*serve.Server
	shardURLs []string
	router    *router.Router
	url       string // where clients send requests: the router, or the only shard
	servers   []*http.Server
	wg        sync.WaitGroup
}

// bootFleet starts n shards and, when n > 1, a router in front of
// them, and waits until every listener answers its health check.
func bootFleet(n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{AccessLog: io.Discard})
		f.shards = append(f.shards, srv)
		u, err := f.listen(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, u)
	}
	f.url = f.shardURLs[0]
	if n > 1 {
		rt, err := router.New(router.Config{
			Shards:        f.shardURLs,
			ProbeInterval: time.Second,
			ProbeTimeout:  time.Second,
			AccessLog:     io.Discard,
			Logf:          log.Printf,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.router = rt
		if f.url, err = f.listen(rt); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, u := range append([]string{f.url}, f.shardURLs...) {
		if err := waitReady(u); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close drains the shards, stops the router's prober and every
// listener, and waits for the serving goroutines to exit.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	f.wg.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// newConns returns the closed loop's clients, each pinned to one
// keep-alive connection.
func newConns(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeConns(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// payload is one request, encoded before any timing starts.
type payload struct {
	path  string
	ctype string
	body  []byte
}

// optimizeBody is the JSON body of POST /v1/optimize.
type optimizeBody struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Spec    string `json:"spec"`
	Options struct {
		Check  bool `json:"check,omitempty"`
		Verify bool `json:"verify,omitempty"`
	} `json:"options,omitempty"`
}

// singlePayload encodes one unit as a /v1/optimize request; check and
// verify ask for the same extra work an archive-verify unit gets.
func singlePayload(u unit, spec string, checkVerify bool) payload {
	b := optimizeBody{Name: u.Name, Source: u.Source, Spec: spec}
	b.Options.Check, b.Options.Verify = checkVerify, checkVerify
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // strings and bools always marshal
	}
	return payload{path: "/v1/optimize", ctype: "application/json", body: body}
}

// archivePayload frames units as one maoar1 archive.
func archivePayload(units []unit, spec string) payload {
	var b bytes.Buffer
	for _, u := range units {
		fmt.Fprintf(&b, "maoar1 %d %d\n", len(u.Name), len(u.Source))
		b.WriteString(u.Name)
		b.WriteString(u.Source)
	}
	q := url.Values{"spec": {spec}, "verify": {"1"}, "check": {"1"}}
	return payload{path: "/v1/optimize/archive?" + q.Encode(), ctype: "application/octet-stream", body: b.Bytes()}
}

func payloads(w *workload, reqs []request) []payload {
	out := make([]payload, len(reqs))
	for i, r := range reqs {
		if w.Archive {
			out[i] = archivePayload(r.Units, w.Spec)
		} else {
			out[i] = singlePayload(r.Units[0], w.Spec, false)
		}
	}
	return out
}

// outcome is what one request observed. The body is kept raw and
// decoded only after the timed phase, so decoding costs no timed CPU.
type outcome struct {
	status  int
	latency time.Duration // send to last body byte
	ttfr    time.Duration // send to the first complete record line
	body    []byte
	cache   string // X-Mao-Cache
	shard   string // X-Mao-Shard
	err     error
}

// send performs one request and reads the whole response. For an
// NDJSON archive stream the first line is the first unit's record;
// a single response is one line, so its first record is the whole body.
func send(c *http.Client, base string, p payload) outcome {
	req, err := http.NewRequest(http.MethodPost, base+p.path, bytes.NewReader(p.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", p.ctype)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return outcome{err: err, latency: time.Since(t0)}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode, cache: resp.Header.Get("X-Mao-Cache"), shard: resp.Header.Get("X-Mao-Shard")}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first, err := br.ReadBytes('\n')
	o.ttfr = time.Since(t0)
	if err != nil && !errors.Is(err, io.EOF) {
		o.err = err
	}
	rest, err := io.ReadAll(br)
	o.latency = time.Since(t0)
	if err != nil && o.err == nil {
		o.err = err
	}
	o.body = append(first, rest...)
	return o
}

// drive runs a closed loop: each connection takes the next request of
// the sequence as soon as its previous one has been answered.
func drive(conns []*http.Client, base string, ps []payload) []outcome {
	out := make([]outcome, len(ps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ps) {
					return
				}
				out[i] = send(c, base, ps[i])
			}
		}()
	}
	wg.Wait()
	return out
}
