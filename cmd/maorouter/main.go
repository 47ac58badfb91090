// Command maorouter fronts a fleet of maod shards: a shared-nothing
// shard router wrapping internal/router.
//
//	maorouter -addr :7960 -shards http://10.0.0.1:7950,http://10.0.0.2:7950
//
// The router computes the daemon's own content-addressed result-cache
// key for each optimize request and consistent-hashes it onto a shard,
// so repeats of a request always land where their cached answer lives
// — fleet-wide cache hit rate stays near single-daemon levels instead
// of diluting by the shard count. Shards are health-checked via
// /readyz; a request whose shard is down is retried once on the next
// shard in ring order.
//
// The router only routes, fails over and splices its hop span into
// traced answers: the result cache, the coalescing of concurrent
// identical requests and admission are each shard's own. Identical
// requests hash onto one shard, which coalesces them, and the router
// relays the shard's X-Mao-Cache verdict (hit, miss or coalesced) in
// the response header, the access log and the flight recorder.
//
// Endpoints:
//
//	GET /metrics   the router's own Prometheus text-format metrics
//	               (per-shard traffic/errors/latency, health, retries,
//	               rebalances)
//	GET /healthz   router liveness (independent of shard health)
//	*              everything else proxies to a shard
//
// Every proxied request carries a MAOSCOPE trace context: an inbound
// X-Mao-Trace header is adopted (originated otherwise), the shard
// receives it re-parented under the router's hop span, and a traced
// /v1/optimize response comes back with the hop span — shard choice,
// attempt count, failover attribution — spliced into the span tree.
// Proxied requests pass through the request layer maod uses too
// (internal/scope), so request IDs, trace contexts and client
// identities follow maod's rules: a JSON access log line per proxied
// request (shard, cache verdict, trace ID, retries) goes to stderr
// unless -quiet, and the flight recorder of the last 512 /v1/*
// requests, the slowest and the errored ones is served from the
// opt-in -debug-addr listener under /debug/scope/. The router's own
// /healthz and /metrics are neither logged nor recorded.
//
// On SIGTERM or SIGINT the router stops accepting connections, lets
// in-flight proxied requests (including NDJSON archive streams)
// finish, then exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mao/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("maorouter: ")

	var (
		addr          = flag.String("addr", ":7960", "listen address (host:port; :0 picks a free port)")
		shards        = flag.String("shards", "", "comma-separated maod shard base URLs (required)")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
		probeInterval = flag.Duration("probe-interval", time.Second, "shard /readyz probe interval (negative disables)")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "timeout of one /readyz probe")
		maxBody       = flag.Int64("max-body-bytes", 0, "max proxied request body size (0 = default)")
		drainWait     = flag.Duration("drain-timeout", 5*time.Minute, "how long to wait for in-flight requests on shutdown")
		quiet         = flag.Bool("quiet", false, "suppress the JSON access log")
		debugAddr     = flag.String("debug-addr", "", "opt-in debug listener for net/http/pprof and /debug/scope (empty = disabled); bind it to localhost")
	)
	flag.Parse()
	if flag.NArg() != 0 || *shards == "" {
		fmt.Fprintln(os.Stderr, "usage: maorouter -shards URL[,URL...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var shardList []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shardList = append(shardList, s)
		}
	}
	cfg := router.Config{
		Shards:        shardList,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		MaxBodyBytes:  *maxBody,
		Logf:          log.Printf,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	rt, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The signal handler is installed before the address is announced:
	// a supervisor that SIGTERMs the moment it sees the announce line
	// must hit graceful drain, not the default termination.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: rt}
	log.Printf("listening on %s (%d shards)", ln.Addr(), len(shardList))

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// The debug plane (pprof + flight recorder) is a separate, opt-in
	// listener: it exposes process internals and other clients'
	// request metadata, so it never rides the proxy port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		debugSrv = &http.Server{Handler: rt.DebugHandler()}
		log.Printf("debug (pprof, scope) listening on %s", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("debug serve: %v", err)
			}
		}()
	}

	select {
	case sig := <-sigc:
		log.Printf("received %s, draining", sig)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	rt.Close()
	if debugSrv != nil {
		debugSrv.Close()
	}
	log.Printf("drained, exiting")
}
