// Command schedserve runs the solver as an HTTP service: the engine's
// service mode (SolveBatch-style admission on the governor, per-request
// deadlines, anytime event streams, the fingerprint bound cache) behind a
// network face with admission control, request coalescing and SSE
// streaming (see internal/serve).
//
// Usage:
//
//	schedserve -addr :8080
//	schedserve -addr :8080 -workers 8 -queue 128
//	schedserve -cache-load bounds.json -cache-save bounds.json
//
// Endpoints:
//
//	POST /v1/solve              solve one instance (JSON: {"instance": ..., "options": {...}})
//	POST /v1/batch              solve many instances through SolveBatch
//	GET  /v1/solve/{id}         fetch a solve's result (202 while running)
//	GET  /v1/solve/{id}/events  SSE stream of incumbent/lower-bound events + terminal result
//	GET  /healthz               liveness (503 while draining)
//	GET  /statsz                queue/shed/coalesce/cache/governor counters
//
// Admission: requests are shed with 429 (queue full) or 503 (deadline not
// meetable by the queue's drain estimate), both with Retry-After. Identical
// concurrent requests (same instance fingerprint and option digest)
// coalesce onto one engine solve. On SIGINT/SIGTERM the server stops
// accepting work, drains in-flight solves under -drain, saves the bound
// cache when -cache-save is set, and exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "engine concurrency budget (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "admission bound: max requests admitted (queued + solving) at once")
		cacheSize  = flag.Int("cache", 1024, "bound cache capacity in fingerprints (0 disables)")
		defTimeout = flag.Duration("default-timeout", 10*time.Second, "request deadline when the client sends none")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		retain     = flag.Duration("retain", 60*time.Second, "how long completed solves stay fetchable by id")
		linger     = flag.Duration("coalesce-linger", 250*time.Millisecond, "serve identical requests arriving this soon after a solve completed from its result (0 = concurrent coalescing only)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight solves")
		cacheLoad  = flag.String("cache-load", "", "bound-cache snapshot to load at startup (monotone merge)")
		cacheSave  = flag.String("cache-save", "", "write a bound-cache snapshot here on shutdown")
	)
	flag.Parse()

	var engOpts []sched.EngineOption
	if *workers > 0 {
		engOpts = append(engOpts, sched.WithWorkers(*workers))
	}
	engOpts = append(engOpts, sched.WithBoundCache(*cacheSize))
	eng, err := sched.New(engOpts...)
	if err != nil {
		fatal(err)
	}
	if *cacheLoad != "" {
		f, err := os.Open(*cacheLoad)
		if err != nil {
			fatal(err)
		}
		n, err := eng.LoadBounds(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", *cacheLoad, err))
		}
		fmt.Fprintf(os.Stderr, "schedserve: merged %d cached bounds from %s\n", n, *cacheLoad)
	}

	srv := serve.New(eng, serve.Config{
		Queue:          *queue,
		Workers:        *workers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Retain:         *retain,
		Linger:         *linger,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "schedserve: listening on %s (queue=%d cache=%d)\n", ln.Addr(), *queue, *cacheSize)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "schedserve: %v — draining (budget %s)\n", sig, *drain)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain and Shutdown run together: Drain flips the serve layer into
	// shedding mode at once (new requests on open connections answer 503 +
	// Retry-After) and waits for admitted solves, while Shutdown refuses
	// new connections and waits for in-flight HTTP exchanges.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "schedserve: shutdown:", err)
	}
	if err := <-drainErr; err != nil {
		fmt.Fprintln(os.Stderr, "schedserve: drain incomplete:", err)
	} else {
		fmt.Fprintln(os.Stderr, "schedserve: drained cleanly")
	}

	if *cacheSave != "" {
		f, err := os.Create(*cacheSave)
		if err != nil {
			fatal(err)
		}
		err = eng.SaveBounds(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("saving %s: %w", *cacheSave, err))
		}
		st := eng.CacheStats()
		fmt.Fprintf(os.Stderr, "schedserve: saved %d cached bounds to %s\n", st.Entries, *cacheSave)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedserve:", err)
	os.Exit(1)
}
