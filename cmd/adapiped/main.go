// Command adapiped is the AdaPipe planner daemon: a long-lived HTTP JSON
// service over the versioned request schema, with an LRU plan cache,
// singleflight request coalescing, bounded-concurrency admission and graceful
// shutdown. It is the serving path of the search engine — schedulers submit
// the same few configurations over and over, and repeated searches come back
// byte-identical from cache without re-running the DP.
//
// Endpoints:
//
//	POST /v1/plan       plan a request           (cached, coalesced, traced)
//	POST /v1/simulate   plan + simulate a request
//	POST /v1/replan     replan under per-stage cost scales (warm-started)
//	POST /v1/sweep      plan a server-expanded grid of requests (amortized
//	                    over the shared cost store, ranked by iteration time)
//	GET  /v1/trace/{id} Chrome trace JSON of a recent request
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition (counters + histograms)
//
// Every failure response is the canonical error envelope
// {"error":{"code","message","status"}} with a stable machine-readable code.
//
// Example:
//
//	adapiped -addr :8844 &
//	curl -s -X POST localhost:8844/v1/plan -d \
//	  '{"model":"gpt3","tp":8,"pp":8,"dp":1,"seq_len":16384,"global_batch":32}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adapipe/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8844", "listen address (host:port; port 0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the actual listen address to this file once serving (for harnesses using port 0)")
		cache     = flag.Int("cache", 256, "plan-cache bound in entries (negative disables caching)")
		inflight  = flag.Int("inflight", serve.DefaultMaxInFlight(), "max concurrently executing searches, one goroutine each (the admission gate and the only parallelism setting)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request search deadline, admission queueing included")
		grace     = flag.Duration("grace", 10*time.Second, "graceful-shutdown drain budget")
		traces    = flag.Int("trace-buffer", 64, "request-trace ring size served by /v1/trace/{id} (negative disables tracing)")
		planners  = flag.Int("planner-store", 64, "warm replanner store bound in live planners (evicted replans re-seed cold)")
		costSize  = flag.Int("cost-store-size", 4096, "shared cost-store bound in entries (negative disables the store)")
		costPath  = flag.String("cost-store-path", "", "persist the cost store to this snapshot file (loaded on start, saved on drain; empty disables persistence)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
		quiet     = flag.Bool("quiet", false, "disable per-request structured logging")
	)
	flag.Parse()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := serve.New(serve.Config{
		CacheSize:        *cache,
		MaxInFlight:      *inflight,
		RequestTimeout:   *timeout,
		TraceBuffer:      *traces,
		PlannerStoreSize: *planners,
		CostStoreSize:    *costSize,
		CostStorePath:    *costPath,
		Logger:           logger,
	})
	if *debugAddr != "" {
		// pprof rides its own listener and mux: the profiling surface stays
		// separable from the service port, and the default ServeMux (which
		// importing net/http/pprof pollutes) is never served.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("debug listener: %v", err)
		}
		fmt.Printf("adapiped: pprof on %s\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "adapiped: pprof server: %v\n", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Printf("adapiped: %v received, draining (budget %s)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Stop accepting, let in-flight handlers finish, then cancel any
		// search still running past the budget.
		err := httpSrv.Shutdown(ctx)
		srv.Close()
		done <- err
	}()

	fmt.Printf("adapiped: listening on %s (cache %d entries, %d in-flight, %s timeout)\n",
		bound, *cache, *inflight, *timeout)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	if err := <-done; err != nil {
		// Drain budget exceeded: cancel searches and force-close.
		srv.Close()
		_ = httpSrv.Close()
		fatalf("graceful shutdown incomplete: %v", err)
	}
	fmt.Println("adapiped: bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adapiped: "+format+"\n", args...)
	os.Exit(1)
}
