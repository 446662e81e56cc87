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
//	       [-parallel N] [-job-timeout D] [-drain-timeout D] [-salt S]
//	       [-journal FILE] [-pprof]
//	       [-node-id NAME -peers NAME=URL,NAME=URL [-advertise URL] [-replicas N]]
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
//	GET    /metrics             Prometheus text: queue/worker/cache gauges + simulator histograms
//	GET    /healthz             liveness + draining flag
//	GET    /v1/cluster/status   cluster membership, peer health, breaker states (cluster mode)
//	GET    /debug/pprof/        Go profiling endpoints (only with -pprof)
//
// Jobs submitted with checkpoints=true (single-cell only) are recorded
// for time-travel debugging: the daemon keeps digest marks every
// checkpoint_interval cycles plus a bounded ring of live replay cursors,
// so any [from,to) window of the run can be re-executed — and traced —
// without re-simulating the prefix. Replayed windows are verified
// against the recording's digest marks as they run.
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
//
// With -node-id and -peers, the daemon joins a static-membership cluster
// (internal/cluster): the result cache is consistent-hashed across
// members, cache fills are gossiped to each key's replicas, cells are
// forwarded to their owners or offloaded to idle peers, and the job
// journal is streamed to ring successors so a surviving replica re-owns
// a dead member's unfinished jobs. Every member must be started with the
// same member name set. Cluster connectivity is purely an accelerator:
// a partitioned member degrades to standalone behavior.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// parsePeers parses the -peers grammar: comma-separated name=URL pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, url, ok := strings.Cut(field, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("malformed peer %q (want name=http://host:port)", field)
		}
		peers[name] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs")
	queue := flag.Int("queue", 64, "queued-job bound (submissions beyond it get 429)")
	cacheMB := flag.Int64("cache-mb", 256, "result cache size in MiB")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max worker goroutines per job's cells")
	jobTimeout := flag.Duration("job-timeout", 30*time.Minute, "per-job deadline, queue wait included (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-drain budget on SIGTERM")
	salt := flag.String("salt", service.DefaultVersionSalt, "cache version salt (bump to invalidate cached results)")
	journal := flag.String("journal", "", "crash-consistent job journal file (empty = jobs do not survive restarts)")
	pprofOn := flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
	nodeID := flag.String("node-id", "", "this member's name in a cbsimd cluster (requires -peers)")
	peersFlag := flag.String("peers", "", "static cluster membership: comma-separated name=URL pairs for every other member")
	advertise := flag.String("advertise", "", "URL peers should use to reach this member (reported in /v1/cluster/status)")
	replicas := flag.Int("replicas", 2, "copies of each cached result across the cluster, owner included")
	flag.Parse()

	// A fresh cell builds its machine from scratch (7.2 MB at 16 cores)
	// against a small live heap, so the default GC target collects every
	// few cells. Measured on the service-mix benchmark (2-vCPU VM, 10
	// paired runs) against the default target plus a warm-start pool of
	// ~100 MB of idle machines: GOGC=400 kept wall time and fresh-cell
	// latency level (median ratios 0.94 and 0.95) and cut peak RSS from
	// 319 to 205 MB; GOGC=200 used 118 MB but ran ~5% slower. An
	// explicit GOGC wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	logger := log.New(os.Stderr, "cbsimd: ", log.LstdFlags|log.Lmsgprefix)

	scfg := service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheBytes:  *cacheMB << 20,
		Parallelism: *parallel,
		JobTimeout:  *jobTimeout,
		VersionSalt: *salt,
		JournalPath: *journal,
		Logf:        logger.Printf,
	}

	var node *cluster.Node
	if *peersFlag != "" || *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			logger.Fatalf("-peers: %v", err)
		}
		if *nodeID == "" || len(peers) == 0 {
			logger.Fatalf("cluster mode needs both -node-id and -peers")
		}
		reg := obs.NewRegistry()
		node, err = cluster.New(cluster.Config{
			Self:     *nodeID,
			SelfURL:  *advertise,
			Peers:    peers,
			Replicas: *replicas,
			Registry: reg,
			Logf:     logger.Printf,
		})
		if err != nil {
			logger.Fatalf("cluster: %v", err)
		}
		scfg.Registry = reg
		scfg.CellResolver = node.CellResolver()
		scfg.OnCacheFill = node.OnCacheFill
		scfg.OnJournal = node.OnJournal
		logger.Printf("cluster mode: node %s, %d peers, %d replicas", *nodeID, len(peers), *replicas)
	}

	svc, err := service.New(scfg)
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	handler := svc.Handler()
	if node != nil {
		node.SetBackend(svc)
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", node.Handler())
		mux.Handle("/", svc.Handler())
		handler = mux
		node.Start()
		defer node.Stop()
	}
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
