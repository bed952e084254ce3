// Command mspgemm-serve runs the masked-SpGEMM network front-end: an
// HTTP server over a serving Session (structure-keyed plan cache +
// bounded executor pool) with admission control, so saturation sheds
// load predictably instead of queueing unboundedly (DESIGN.md §11).
//
//	mspgemm-serve -addr :8080 -max-inflight 8 -max-queue 32
//
// Endpoints: POST /v1/multiply, PUT /v1/operands, POST /v1/warm,
// GET /stats, GET /healthz. Try it with curl:
//
//	mtxgen -kind er -n 1024 -degree 8 -out g.mtx
//	curl --data-binary @g.mtx 'localhost:8080/v1/multiply?format=summary'
//
// Every request runs the Hybrid per-row selector, one-phase; options
// are complement=1 and threads=N.
//
// Recurring operands can be uploaded once and multiplied by reference
// afterwards — see the README's serving walkthrough:
//
//	REF=$(curl -sT g.mtx localhost:8080/v1/operands | jq -r '.operands[0].ref')
//	curl -X POST "localhost:8080/v1/multiply?a=$REF&format=summary"
//
// On SIGINT/SIGTERM the server drains: new and queued requests are
// rejected with 503, in-flight products finish, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxInFlight  = flag.Int("max-inflight", 0, "concurrent multiplications, uploads and warms (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "queued requests beyond the in-flight bound (0 = 4×max-inflight)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "default per-request queue deadline")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		maxBody      = flag.Int64("max-body-bytes", 1<<30, "request body size cap (413 beyond it)")
		bodyTimeout  = flag.Duration("body-read-timeout", time.Minute, "per-request body upload deadline (408 beyond it)")
		cacheEntries = flag.Int("cache-entries", 0, "plan-cache entry bound (0 = default 128)")
		memBudget    = flag.Int64("memory-budget", 0, "shared byte budget over cached plans and stored operands (0 = default 1GiB)")
		panicEvery   = flag.Duration("panic-log-every", time.Minute, "rate limit on kernel-panic log entries: the first contained panic of a kind logs its full stack and request fingerprints, repeats within the interval are counted instead of logged")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
	)
	flag.Parse()

	var sopts []maskedspgemm.SessionOption
	if *cacheEntries > 0 {
		sopts = append(sopts, maskedspgemm.WithPlanCacheEntries(*cacheEntries))
	}
	if *memBudget > 0 {
		sopts = append(sopts, maskedspgemm.WithMemoryBudget(*memBudget))
	}
	front := serve.New(serve.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		RetryAfter:      *retryAfter,
		MaxBodyBytes:    *maxBody,
		BodyReadTimeout: *bodyTimeout,
		PanicLogEvery:   *panicEvery,
		SessionOptions:  sopts,
	})
	// ReadHeaderTimeout caps header trickling before a request reaches
	// a handler; body trickling is bounded per request by the serve
	// package's BodyReadTimeout (a whole-request ReadTimeout would also
	// clock queue time, mispricing large-but-honest uploads).
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           front,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("mspgemm-serve listening on %s", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("received %v; draining (in-flight finishes, queued and new requests get 503)", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Admission drain first (stop starting work), then the HTTP-level
	// shutdown (wait out connections whose handlers are finishing).
	select {
	case <-front.Drain():
	case <-ctx.Done():
		log.Printf("drain timeout: abandoning in-flight work")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("drained; bye")
}
