// Command maod serves the MAO optimization pipeline over HTTP: an
// optimization-as-a-service daemon wrapping internal/serve.
//
//	maod -addr :7950 -workers 8 -queue 128
//
// Endpoints:
//
//	POST /v1/optimize          optimize one assembly unit (JSON in/out)
//	POST /v1/optimize/archive  optimize a multi-unit archive (maoar1
//	                           framing in, streamed NDJSON out)
//	GET  /metrics              Prometheus text-format metrics
//	GET  /healthz              liveness
//	GET  /readyz               readiness (503 once draining)
//
// Every request carries an X-Request-ID (honored inbound, generated
// otherwise), echoed in the response, the access log, and the pipeline
// spans behind the per-pass latency histograms on /metrics. Profiling
// (net/http/pprof) never rides the service port: it is served only
// from the opt-in -debug-addr listener.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops
// accepting connections and admissions, completes every in-flight
// request, then exits 0.
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
	"syscall"
	"time"

	"mao/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("maod: ")

	var (
		addr        = flag.String("addr", ":7950", "listen address (host:port; :0 picks a free port)")
		workers     = flag.Int("workers", 0, "optimization worker goroutines (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "admission queue depth; beyond it requests get 429 (0 = default)")
		cacheSize   = flag.Int("result-cache", 0, "result-cache entries, 0 = default, -1 disables")
		pipeWorkers = flag.Int("pipeline-workers", 1, "intra-unit pass parallelism (1 = deterministic order is free)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline (0 = default)")
		maxDeadline = flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = default)")
		maxBody     = flag.Int64("max-source-bytes", 0, "max request body size (0 = default)")
		maxUnits    = flag.Int("max-archive-units", 0, "max units per archive request (0 = default)")
		quotaRate   = flag.Float64("quota-rate", 0, "per-client quota tokens per second (0 = quotas disabled)")
		quotaBurst  = flag.Int("quota-burst", 0, "per-client quota bucket capacity (0 = default)")
		drainWait   = flag.Duration("drain-timeout", 5*time.Minute, "how long to wait for in-flight requests on shutdown")
		quiet       = flag.Bool("quiet", false, "suppress access logs")
		debugAddr   = flag.String("debug-addr", "", "opt-in debug listener for net/http/pprof and /debug/scope (empty = disabled); bind it to localhost")
		flightSize  = flag.Int("flight-records", 0, "flight-recorder ring size, 0 = default, -1 disables")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: maod [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		ResultCacheEntries: *cacheSize,
		PipelineWorkers:    *pipeWorkers,
		DefaultDeadline:    *deadline,
		MaxDeadline:        *maxDeadline,
		MaxSourceBytes:     *maxBody,
		MaxArchiveUnits:    *maxUnits,
		QuotaRate:          *quotaRate,
		QuotaBurst:         *quotaBurst,
		FlightRecords:      *flightSize,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// The profiling plane is a separate, opt-in listener: pprof exposes
	// process internals, so it never rides on the service port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		log.Printf("debug (pprof, scope) listening on %s", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("debug serve: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		log.Printf("received %s, draining", sig)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	// Graceful drain, in two stages. Close first: it stops admission
	// (new optimize requests answer 503, /readyz flips) and runs every
	// admitted request to completion — no admitted request is dropped.
	// Shutdown then closes the listener and waits for the handlers to
	// finish writing their responses.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	log.Printf("drained, exiting")
}
