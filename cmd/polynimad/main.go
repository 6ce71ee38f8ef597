// polynimad is the fleet recompile daemon: a long-running HTTP service
// (internal/serve) holding one shared tiered artifact store, so every
// recompile/trace/additive job any client submits warms the cache for the
// next — across requests, not just within one process's lifetime like the
// polynima CLI.
//
// Usage:
//
//	polynimad [-listen addr] [-store dir [-store-max-mb N]]
//	          [-remote-store url [-remote-store-token tok]]
//	          [-auth-token tok] [-max-inflight N [-max-queue N]]
//	          [-max-inflight-store N [-max-queue-store N]]
//	          [-quota-rps R [-quota-burst N]]
//	          [-jpipe N] [-tracefile file] [-log-format json|text]
//
// The backing tier composes -store (local disk, optionally size-pruned)
// over -remote-store (an upstream polynimad or any server speaking the
// /store/v1 protocol), probed in that order. Clients are the polynima and
// polybench -remote-store flags, curl against /v1/*, or another polynimad
// chaining through its own -remote-store.
//
// The hardening flags (DESIGN.md §7): -auth-token requires clients to
// present the token as "Authorization: Bearer"; -max-inflight/-max-queue
// bound concurrent jobs (overload is shed as 429 + Retry-After), with the
// -store variants bounding /store/v1/* blob requests separately; -quota-rps
// rate-limits each client. A client that disconnects mid-job has its
// pipeline cancelled and its worker slot freed.
//
// Observability (DESIGN.md §6): -log-format json|text enables the
// structured access log on stderr — one line per request with the trace id,
// client token digest, kind, outcome, queue wait, duration, and byte counts
// (raw tokens never appear). Requests carrying a W3C traceparent header join
// the client's distributed trace; the daemon allocates itself a root trace
// position at startup and propagates it upstream on every chained
// -remote-store request. /metrics serves latency histograms, Go runtime
// gauges, and polynima_build_info; /debug/pprof/* is gated behind
// -auth-token when one is set.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503 (so load
// balancers drain the daemon), waits out in-flight jobs (bounded), then
// writes the span trace when -tracefile is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8473", "listen `address`")
	storeDir := flag.String("store", "", "back the shared store with a disk tier rooted at `dir`")
	storeMaxMB := flag.Int64("store-max-mb", 0, "prune the disk tier to at most `N` MiB (0 = unbounded)")
	remoteStore := flag.String("remote-store", "", "chain an upstream store service at `url` under the disk tier")
	remoteToken := flag.String("remote-store-token", "", "bearer `token` sent to the upstream store service")
	authToken := flag.String("auth-token", "", "require clients to present this bearer `token` (401 otherwise)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing jobs, 0 = unlimited")
	maxQueue := flag.Int("max-queue", 0, "over-limit jobs that wait for a slot instead of a 429, 0 = shed immediately")
	maxInflightStore := flag.Int("max-inflight-store", 0, "max concurrent /store/v1 requests, 0 = unlimited")
	maxQueueStore := flag.Int("max-queue-store", 0, "over-limit store requests that wait, 0 = shed immediately")
	quotaRPS := flag.Float64("quota-rps", 0, "per-client sustained requests/second, 0 = no quotas")
	quotaBurst := flag.Int("quota-burst", 0, "per-client burst capacity, 0 = 2x quota-rps")
	jpipe := flag.Int("jpipe", runtime.NumCPU(), "concurrent per-job function lifts/optimizations (1 = serial)")
	tracefile := flag.String("tracefile", "", "write a Chrome trace_event JSON span trace to `file` at shutdown")
	logFormat := flag.String("log-format", "", "structured access log on stderr: json or text (default off)")
	target := flag.String("target", "", "default lowering target ISA for jobs: mx64 (default) or mx64w; jobs override with ?target=")
	flag.Parse()

	var logger *slog.Logger
	switch *logFormat {
	case "":
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	default:
		check(fmt.Errorf("polynimad: -log-format %q: want json or text", *logFormat))
	}

	// The daemon's root trace position: jobs that arrive without a
	// traceparent start their own traces, but the daemon's upstream store
	// requests (a chained -remote-store) all ride under this one.
	rootTC := obs.NewTraceContext()
	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.New()
		tracer.SetTraceContext(rootTC)
	}

	backing, err := store.OpenBacking(*storeDir, *storeMaxMB, *remoteStore, store.RemoteOptions{
		AuthToken:   *remoteToken,
		Traceparent: rootTC.Traceparent(),
	})
	check(err)

	opts := core.DefaultOptions()
	opts.Workers = *jpipe
	if mx.TargetByName(*target) == nil {
		check(fmt.Errorf("polynimad: unknown -target %q (want mx64 or mx64w)", *target))
	}
	opts.Target = *target
	s := serve.New(serve.Config{
		Opts:             opts,
		Backing:          backing,
		Tracer:           tracer,
		AuthToken:        *authToken,
		MaxInflightJobs:  *maxInflight,
		MaxQueueJobs:     *maxQueue,
		MaxInflightStore: *maxInflightStore,
		MaxQueueStore:    *maxQueueStore,
		QuotaRPS:         *quotaRPS,
		QuotaBurst:       *quotaBurst,
		Logger:           logger,
	})

	srv := &http.Server{Addr: *listen, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "polynimad: listening on %s\n", *listen)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		check(err) // bind failure etc. — Shutdown was never reachable
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "polynimad: shutting down")
		// Flip /healthz to 503 first, so load balancers stop routing here
		// while Shutdown waits out the in-flight jobs.
		s.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "polynimad: shutdown: %v\n", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "polynimad: %v\n", err)
		}
	}

	if tracer != nil {
		if err := tracer.WriteFile(*tracefile); err != nil {
			fmt.Fprintf(os.Stderr, "polynimad: tracefile: %v\n", err)
			os.Exit(1)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
