// Command cbsimd is the simulation-as-a-service daemon: an HTTP/JSON
// front end over the deterministic sweep runner. Clients submit
// simulation jobs (single benchmark x setup cells or whole sweeps),
// watch per-cell progress as an NDJSON stream, and fetch the final
// statistics as JSON. Identical cells are served from a
// content-addressed LRU result cache instead of being re-simulated.
//
// Usage:
//
//	cbsimd [-addr :8347] [-workers N] [-queue N] [-cache-mb N]
//	       [-parallel N] [-job-timeout D] [-drain-timeout D]
//	       [-journal FILE] [-pprof]
//
// API:
//
//	POST   /v1/jobs             submit a job (JSON body; 429 when the queue is full)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events stream progress (NDJSON)
//	GET    /v1/jobs/{id}/result final per-cell stats + energy (JSON)
//	GET    /v1/jobs/{id}/trace  Chrome trace JSON (jobs submitted with trace=true)
//	GET    /v1/jobs/{id}/replay windowed re-execution of a checkpointed job:
//	                            ?from=&to= select the cycle window, trace=true
//	                            returns its Chrome trace instead of stats
//	GET    /v1/jobs/{id}/bisect first divergence vs ?against=<setup> (exact
//	                            cycle, component, and first differing event)
//	GET    /v1/jobs/{id}/cycles per-setup cycle stacks (jobs submitted with cycles=true)
//	POST   /v1/verify           statically verify a client-supplied program set
//	GET    /metrics             Prometheus text: queue/worker/cache gauges + simulator histograms
//	GET    /healthz             liveness + draining flag
//	GET    /debug/pprof/        Go profiling endpoints (only with -pprof)
//
// Jobs submitted with checkpoints=true (single-cell only) are recorded
// for time-travel debugging: the daemon keeps digest marks every
// checkpoint_interval cycles, so any [from,to) window of the run can be
// re-executed — and traced — by rebuilding the cell and running it from
// cycle 0. Replayed windows are verified against the recording's digest
// marks as they run. A mark holds the machine's full digest and the
// events the simulated machine fired by then, the events passed for
// parked spin loops included, so a traced window, whose loops stay
// simulated, verifies marks recorded with them parked.
//
// On SIGTERM/SIGINT the daemon drains gracefully: running cells finish,
// queued jobs fail with a retryable status, and the process exits 0
// within the drain timeout.
//
// With -journal, accepted jobs are recorded in an append-only NDJSON
// journal before the client sees 202; on boot, jobs without a terminal
// record (queued or running when the previous process died) are
// re-enqueued under their original IDs — so the daemon survives crashes
// and kill -9 without losing accepted work.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs")
	queue := flag.Int("queue", 64, "queued-job bound (submissions beyond it get 429)")
	cacheMB := flag.Int64("cache-mb", 256, "result cache size in MiB")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max worker goroutines per job's cells")
	jobTimeout := flag.Duration("job-timeout", 30*time.Minute, "per-job deadline, queue wait included (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-drain budget on SIGTERM")
	journal := flag.String("journal", "", "crash-consistent job journal file (empty = jobs do not survive restarts)")
	pprofOn := flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
	flag.Parse()

	// A fresh cell builds its machine from scratch against a small live
	// heap, so the default GC target collects every few cells. The
	// 16-core machine was 3.2 MB when this target was chosen; it is
	// 0.31 MB since cache sets get their lines on their first fill and
	// the event queues shrank. The cell's programs (0.62 MB to generate
	// a 16-core radiosity set, whose threads share one instruction
	// table) and filled sets come on top. Measured on the service-mix
	// benchmark (2-vCPU VM, 10 paired runs) against the default target
	// plus a warm-start pool of ~100 MB of idle machines: GOGC=400 kept
	// wall time and fresh-cell latency level (median ratios 0.94 and
	// 0.95) and cut peak RSS from 319 to 205 MB; GOGC=200 used 118 MB
	// but ran ~5% slower. Tag-only cache lines, the allocation-free
	// program verifier, lazy cache sets and shared instruction tables
	// have since brought the median peak RSS at GOGC=400 to 43 MB. The
	// live heap after a 4,000-job session is 5.5 MB, 4.75 MB of it the
	// finished jobs' records. An explicit GOGC wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	logger := log.New(os.Stderr, "cbsimd: ", log.LstdFlags|log.Lmsgprefix)

	svc, err := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheBytes:  *cacheMB << 20,
		Parallelism: *parallel,
		JobTimeout:  *jobTimeout,
		JournalPath: *journal,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	handler := svc.Handler()
	if *pprofOn {
		// Mount the API alongside explicit pprof routes (avoiding the
		// DefaultServeMux so nothing else registered there leaks in).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Printf("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout stays 0: /v1/jobs/{id}/events streams for the
		// lifetime of a job.
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Listen explicitly so ":0" resolves to a concrete port before the
	// "listening on" line — test harnesses (and humans) read the bound
	// address from the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%d workers, queue %d, cache %d MiB)",
			ln.Addr(), *workers, *queue, *cacheMB)
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (budget %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		logger.Printf("drain timed out; in-flight jobs were canceled: %v", drainErr)
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}
