package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/isa/verify"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of concurrent jobs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheBytes bounds the result cache (default 256 MiB).
	CacheBytes int64
	// Parallelism caps the worker goroutines any single job's cells may
	// fan over (default GOMAXPROCS). The daemon's total simulation
	// concurrency is bounded by Workers x Parallelism.
	Parallelism int
	// JobTimeout is the end-to-end deadline per job, queue wait
	// included (0 = none).
	JobTimeout time.Duration
	// JournalPath, when non-empty, names the append-only NDJSON job
	// journal: accepted jobs are recorded before the client sees 202,
	// terminal transitions when they happen, and on boot jobs without a
	// terminal record are re-enqueued under their original IDs — so
	// queued and running jobs survive a daemon crash or kill -9.
	JournalPath string
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) fill() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the simulation daemon: a bounded job queue drained by a
// worker pool, a content-addressed result cache, and the HTTP/JSON API
// in front of them. Create with New, serve Handler(), stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	jobsCh   chan *job
	quit     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	busy     atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID atomic.Uint64

	// journal is the crash-consistency log (nil without JournalPath).
	journal *journal
	// verified memoizes static program verification per generation combo
	// (benchmark, cores, style, flavour): generation is deterministic, so
	// one verdict covers every cell and every future job sharing the
	// combo. Values are []string diagnostics (empty = verified clean).
	verified sync.Map
	// retrySeq drives the jittered Retry-After hint on backpressure
	// responses, spreading retries of concurrently rejected clients.
	retrySeq atomic.Uint64

	simRate metrics.SimRate

	// reg is the daemon's metrics registry, served at GET /metrics. The
	// operational counters below and the shared simulator histograms
	// (sim) are all registered on it.
	reg            *obs.Registry
	sim            *obs.SimMetrics
	cellsSimulated *obs.Counter
	cellsCached    *obs.Counter
	jobsSubmitted  *obs.Counter
	jobsRejected   *obs.Counter
	journalTorn    *obs.Counter
}

// New builds a server and starts its worker pool. With a configured
// journal, jobs that were queued or running when the previous process
// died are replayed into the queue before the first worker starts.
func New(cfg Config) (*Server, error) {
	cfg = cfg.fill()
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheBytes),
		jobsCh: make(chan *job, cfg.QueueDepth),
		quit:   make(chan struct{}),
		jobs:   make(map[string]*job),
	}
	s.registerMetrics()
	s.routes()
	if cfg.JournalPath != "" {
		jl, recs, torn, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		if torn > 0 {
			cfg.Logf("journal replay: dropped %d torn tail record(s) (crash mid-append)", torn)
			s.journalTorn.Add(uint64(torn))
		}
		pending, maxSeq := replayJournal(recs)
		s.nextID.Store(maxSeq)
		for _, p := range pending {
			j, err := s.makeJob(p.id, p.req)
			if err != nil {
				// A journaled request that no longer validates (profile
				// renamed across versions): drop it, loudly.
				cfg.Logf("journal replay: dropping job %s: %v", p.id, err)
				continue
			}
			s.mu.Lock()
			s.jobs[p.id] = j
			s.order = append(s.order, p.id)
			s.mu.Unlock()
			select {
			case s.jobsCh <- j:
				cfg.Logf("journal replay: job %s re-enqueued (%d cells)", p.id, len(j.cells))
			default:
				j.finish(StateRetryable, "journal replay: job queue full")
			}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// verifyKey identifies one deterministic program-generation combo.
type verifyKey struct {
	bench  string
	cores  int
	style  string
	flavor synclib.Flavor
}

// verifyError is a submission rejected by static program verification;
// it carries the per-instruction diagnostics for the structured 400.
type verifyError struct {
	combo string
	diags []string
}

func (e *verifyError) Error() string {
	return fmt.Sprintf("programs for %s failed static verification (%d finding(s))", e.combo, len(e.diags))
}

// verifyCells statically verifies the programs every cell will run,
// deduplicated by generation combo and memoized across jobs. A finding
// is a generator bug surfacing through the API: the job is rejected up
// front with the diagnostic list instead of failing (or silently
// corrupting) mid-simulation.
func (s *Server) verifyCells(cells []CellSpec) error {
	checked := make(map[verifyKey]bool)
	for _, c := range cells {
		setup, err := experiments.SetupByName(c.Setup)
		if err != nil {
			return err // unreachable: validated by Cells
		}
		k := verifyKey{c.Benchmark, c.Cores, c.Style, setup.Flavor()}
		if checked[k] {
			continue
		}
		checked[k] = true
		combo := fmt.Sprintf("%s/%s/%d-core/%v", c.Benchmark, c.Style, c.Cores, k.flavor)
		if v, ok := s.verified.Load(k); ok {
			if diags := v.([]string); len(diags) > 0 {
				return &verifyError{combo: combo, diags: diags}
			}
			continue
		}
		p, err := workload.ByName(c.Benchmark)
		if err != nil {
			return err // unreachable: validated by Cells
		}
		set := workload.Generate(p, c.Cores, c.SyncStyle(), k.flavor).Verify()
		var diags []string
		for _, d := range set.AllDiags() {
			diags = append(diags, d.String())
		}
		s.verified.Store(k, diags)
		if len(diags) > 0 {
			return &verifyError{combo: combo, diags: diags}
		}
	}
	return nil
}

// makeJob validates and normalizes req into a job with the given ID,
// wired to journal its terminal transition.
func (s *Server) makeJob(id string, req JobRequest) (*job, error) {
	cells, err := req.Cells()
	if err != nil {
		return nil, err
	}
	if err := s.verifyCells(cells); err != nil {
		return nil, err
	}
	if req.Trace && len(cells) != 1 {
		return nil, fmt.Errorf("trace requires a single-cell job (request expands to %d cells)", len(cells))
	}
	if req.Checkpoints && len(cells) != 1 {
		return nil, fmt.Errorf("checkpoints require a single-cell job (request expands to %d cells)", len(cells))
	}
	if req.Cycles && req.Checkpoints {
		return nil, fmt.Errorf("cycles and checkpoints cannot be combined (the replay contract pins the recorded run's exact payload)")
	}
	par := req.Parallelism
	if par <= 0 || par > s.cfg.Parallelism {
		par = s.cfg.Parallelism
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := newJob(id, cells, par, ctx, cancel)
	j.traceWanted = req.Trace
	j.checkpoints = req.Checkpoints
	j.ckInterval = req.CheckpointInterval
	if s.journal != nil {
		j.onFinish = func(state string) {
			s.recordJournal(JournalRecord{Op: "done", ID: id, State: state})
		}
	}
	return j, nil
}

// recordJournal appends rec to the journal (when configured). A journal
// write error is logged, not fatal — the job still runs; it just won't
// survive a crash.
func (s *Server) recordJournal(rec JournalRecord) {
	if err := s.journal.append(rec); err != nil {
		s.cfg.Logf("journal: recording %s %s: %v", rec.Op, rec.ID, err)
	}
}

// retryAfter returns the next jittered Retry-After hint (1-4 seconds):
// concurrently rejected clients get different delays, so their retries
// don't arrive as a synchronized thundering herd.
func (s *Server) retryAfter() string {
	return fmt.Sprint(1 + s.retrySeq.Add(1)%4)
}

// rejectRetryable writes a backpressure rejection (429 queue-full, 503
// draining): every retryable rejection carries the jittered Retry-After
// hint, so clients of either path back off without synchronizing.
func (s *Server) rejectRetryable(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", s.retryAfter())
	writeJSON(w, code, apiError{Error: msg, Retryable: true})
}

// registerMetrics declares the daemon's operational metrics and the
// shared simulator histograms on one registry. Gauges that mirror live
// state (queue depth, busy workers, cache size) are computed at
// exposition time; counters are incremented on the hot path.
func (s *Server) registerMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.sim = obs.NewSimMetrics(r)
	s.jobsSubmitted = r.Counter("cbsimd_jobs_submitted_total", "Jobs accepted into the queue.")
	s.jobsRejected = r.Counter("cbsimd_jobs_rejected_total", "Jobs rejected with backpressure (queue full).")
	s.cellsSimulated = r.Counter("cbsimd_cells_simulated_total", "Cells resolved by running a fresh simulation.")
	s.cellsCached = r.Counter("cbsimd_cells_cached_total", "Cells served from the content-addressed cache.")
	s.journalTorn = r.Counter("service_journal_torn_tails_total", "Torn journal tail records dropped during replay-on-boot (crash-mid-append corruption).")
	r.GaugeFunc("cbsimd_queue_depth", "Queued-but-not-running jobs.",
		func() float64 { return float64(len(s.jobsCh)) })
	r.GaugeFunc("cbsimd_queue_capacity", "Job queue capacity.",
		func() float64 { return float64(cap(s.jobsCh)) })
	r.GaugeFunc("cbsimd_workers", "Worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("cbsimd_workers_busy", "Workers currently running a job.",
		func() float64 { return float64(s.busy.Load()) })
	r.GaugeFunc("cbsimd_draining", "1 while graceful drain is in progress.",
		func() float64 { return float64(boolInt(s.draining.Load())) })
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateRetryable} {
		st := st
		r.GaugeFunc("cbsimd_jobs", "Jobs by state.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.jobs {
				if j.status().State == st {
					n++
				}
			}
			return float64(n)
		}, obs.L("state", st))
	}
	r.GaugeFunc("cbsimd_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.GaugeFunc("cbsimd_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.GaugeFunc("cbsimd_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("cbsimd_cache_entries", "Result-cache entries resident.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.GaugeFunc("cbsimd_cache_bytes", "Result-cache bytes resident.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.GaugeFunc("cbsimd_cache_capacity_bytes", "Result-cache capacity.",
		func() float64 { return float64(s.cache.Stats().MaxBytes) })
	r.GaugeFunc("cbsimd_cache_hit_rate", "Result-cache hit rate in [0,1].",
		func() float64 { return s.cache.Stats().HitRate() })
	r.GaugeFunc("cbsimd_sim_cells_observed_total", "Cells folded into the sim-rate estimate.",
		func() float64 { cells, _, _ := s.simRate.Snapshot(); return float64(cells) })
	r.GaugeFunc("cbsimd_sim_cycles_total", "Simulated cycles across fresh cells.",
		func() float64 { _, cycles, _ := s.simRate.Snapshot(); return float64(cycles) })
	r.GaugeFunc("cbsimd_sim_wall_seconds_total", "Wall-clock seconds spent simulating.",
		func() float64 { _, _, wall := s.simRate.Snapshot(); return wall.Seconds() })
	r.GaugeFunc("cbsimd_sim_cycles_per_wall_second", "Aggregate simulated-vs-wall rate.",
		s.simRate.CyclesPerSecond)
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/replay", s.handleReplay)
	s.mux.HandleFunc("GET /v1/jobs/{id}/bisect", s.handleBisect)
	s.mux.HandleFunc("GET /v1/jobs/{id}/cycles", s.handleCycles)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// ---------------------------------------------------------------- workers

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobsCh:
			s.busy.Add(1)
			s.runJob(j)
			s.busy.Add(-1)
		}
	}
}

// errDraining aborts a job's remaining cells during graceful drain:
// in-flight cells complete, queued cells never start.
var errDraining = errors.New("service: draining")

// runJob executes one job: each cell is either served from the
// content-addressed cache or simulated, with progress events streamed as
// it goes. Cells fan over the job's Parallelism via experiments.Sweep.
// A panic anywhere in the job fails that job, never the daemon.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logf("job %s panicked: %v\n%s", j.id, r, debug.Stack())
			j.finish(StateFailed, fmt.Sprintf("internal error: %v", r))
		}
	}()
	if s.draining.Load() {
		j.finish(StateRetryable, "server draining: job never started")
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.finish(StateCanceled, err.Error())
		return
	}
	if !j.start() {
		// Terminal before it ever ran (canceled while queued): skip.
		return
	}
	s.cfg.Logf("job %s started: %d cells", j.id, len(j.cells))
	n := len(j.cells)
	o := experiments.Options{Parallelism: j.par, Context: j.ctx}
	err := experiments.Sweep(o, n, func(i int) error {
		if s.draining.Load() {
			return errDraining
		}
		return s.runCell(j, i)
	})
	switch {
	case err == nil:
		j.finish(StateDone, "")
	case errors.Is(err, errDraining):
		j.finish(StateRetryable, fmt.Sprintf("server draining: %d/%d cells completed", j.status().CellsDone, n))
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, err.Error())
	default:
		j.finish(StateFailed, err.Error())
	}
	st := j.status()
	s.cfg.Logf("job %s %s: %d/%d cells, %d cache hits", j.id, st.State, st.CellsDone, st.Cells, st.CacheHits)
}

// runCell resolves one cell: cache hit, fresh simulation, or, for a
// checkpointed job, a fresh recording. A traced cell (single-cell jobs
// only) always simulates fresh — the trace must match the reported
// result — but still populates the cache for untraced followers. A
// panicking cell (simulator bug on one configuration) fails its job with
// the panic as the error; sibling cells on other workers finish their
// in-flight work, and the daemon keeps serving.
func (s *Server) runCell(j *job, i int) (err error) {
	c := j.cells[i]
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logf("job %s cell %d (%s/%s) panicked: %v\n%s", j.id, i+1, c.Benchmark, c.Setup, r, debug.Stack())
			err = fmt.Errorf("cell %d (%s/%s) panicked: %v", i+1, c.Benchmark, c.Setup, r)
		}
	}()
	key := c.Key()
	if data, ok := s.cache.Get(key); ok && !j.traceWanted && !j.checkpoints {
		s.cellsCached.Inc()
		j.cellDone(i, CellResult{Cached: true, Data: data}, Event{
			Type: "cell_done", Job: j.id, Cell: i + 1, Cells: len(j.cells),
			Benchmark: c.Benchmark, Setup: c.Setup, Cached: true,
		})
		return nil
	}
	p, err := workload.ByName(c.Benchmark)
	if err != nil {
		return err // unreachable: validated at submit
	}
	setup, err := experiments.SetupByName(c.Setup)
	if err != nil {
		return err // unreachable: validated at submit
	}
	var chrome bytes.Buffer
	var cw *trace.ChromeWriter
	var sink trace.Sink
	if j.traceWanted {
		cw = trace.NewChromeWriter(&chrome)
		sink = cw
	}
	started := func() {
		j.emit(Event{
			Type: "cell_start", Job: j.id, Cell: i + 1, Cells: len(j.cells),
			Benchmark: c.Benchmark, Setup: c.Setup,
		})
	}
	run := s.simulateCell
	if j.checkpoints {
		run = s.recordCell
	}
	st, wall, err := run(j, c, p, setup, sink, started)
	if err != nil {
		// A liveness failure carries a per-core dump of where every core
		// was stuck; surface it in the daemon log (the job error string
		// stays concise).
		var npe *machine.NoProgressError
		if errors.As(err, &npe) {
			s.cfg.Logf("job %s cell %d (%s/%s) made no progress:\n%s", j.id, i+1, c.Benchmark, c.Setup, npe.Dump())
		}
		return err
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			return fmt.Errorf("finalizing trace for %s/%s: %w", c.Benchmark, c.Setup, err)
		}
		j.setTrace(chrome.Bytes())
	}
	data, err := json.Marshal(cellPayload{Spec: c, Stats: st, Energy: experiments.EnergyOf(st)})
	if err != nil {
		return fmt.Errorf("marshaling result for %s/%s: %w", c.Benchmark, c.Setup, err)
	}
	s.cache.Put(key, data)
	s.cellsSimulated.Inc()
	s.simRate.Observe(st.Cycles, wall)
	j.cellDone(i, CellResult{WallMS: wallMS(wall), Data: data}, Event{
		Type: "cell_done", Job: j.id, Cell: i + 1, Cells: len(j.cells),
		Benchmark: c.Benchmark, Setup: c.Setup,
		Cycles: st.Cycles, WallMS: wallMS(wall),
	})
	return nil
}

// simulateCell runs one cell fresh and returns its Stats and the wall
// time of the simulation. tr, when non-nil, receives the run's trace
// events; started is called as the simulation starts.
func (s *Server) simulateCell(j *job, c CellSpec, p workload.Profile, setup experiments.Setup, tr trace.Sink, started func()) (machine.Stats, time.Duration, error) {
	var wall time.Duration
	co := experiments.Options{
		Cores:       c.Cores,
		CBEntries:   c.Entries,
		Limit:       c.Limit,
		Parallelism: 1, // a cell is a single simulation
		Context:     j.ctx,
		Metrics:     s.sim,
		CycleStacks: c.Cycles,
		Progress: func(e experiments.RunEvent) {
			if !e.Done {
				started()
				return
			}
			wall = e.Wall
		},
	}
	if tr != nil {
		co.Trace = tr
	}
	res, err := experiments.RunBenchmark(p, setup, c.SyncStyle(), co)
	return res.Stats, wall, err
}

// recordCell is simulateCell for a checkpointed job: it records the
// cell for time-travel debugging and keeps the recording on the job for
// GET /replay and /bisect. The Stats are byte-identical to a plain
// run's — the replay contract — and a requested trace comes from
// replaying the full window, which by the same contract matches the
// trace a plain traced run emits.
func (s *Server) recordCell(j *job, c CellSpec, p workload.Profile, setup experiments.Setup, tr trace.Sink, started func()) (machine.Stats, time.Duration, error) {
	started()
	co := experiments.Options{
		Cores:     c.Cores,
		CBEntries: c.Entries,
		Limit:     c.Limit,
		Context:   j.ctx,
	}
	start := time.Now()
	rec, err := experiments.RecordBenchmark(p, setup, c.SyncStyle(), co, j.ckInterval)
	if err != nil {
		return machine.Stats{}, 0, err
	}
	wall := time.Since(start)
	j.setRecording(rec)
	if tr != nil {
		if _, err := rec.Replay(j.ctx, 0, rec.End(), tr); err != nil {
			return machine.Stats{}, 0, fmt.Errorf("tracing recorded run %s/%s: %w", c.Benchmark, c.Setup, err)
		}
	}
	return rec.Stats(), wall, nil
}

func wallMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --------------------------------------------------------------- draining

// Drain gracefully stops the server: new submissions are rejected,
// queued jobs fail with a retryable status, and running jobs stop after
// their in-flight cells complete. If ctx expires first, the remaining
// jobs are hard-canceled (the simulator aborts between kernel events)
// and Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.quit)
	}
	// Fail everything still queued. Workers racing us to the channel
	// observe the draining flag and fail the job the same way.
	for {
		select {
		case j := <-s.jobsCh:
			j.finish(StateRetryable, "server draining: job never started")
			continue
		default:
		}
		break
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.journal.close()
		return nil
	case <-ctx.Done():
	}
	// Soft drain timed out: cancel in-flight jobs and wait for the
	// workers to notice (bounded by the simulator's context poll
	// interval, microseconds of simulation).
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	<-done
	s.journal.close()
	return ctx.Err()
}

// -------------------------------------------------------------- handlers

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
	// Diagnostics carries the per-instruction findings when a submission
	// is rejected by static program verification.
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// Sentinel errors returned by SubmitJob; the HTTP handler maps both to
// retryable rejections.
var (
	// ErrDraining rejects work arriving during graceful drain.
	ErrDraining = errors.New("service: server draining")
	// ErrQueueFull rejects submissions beyond the queue bound.
	ErrQueueFull = errors.New("service: job queue full")
)

// SubmitJob validates, registers, enqueues, and journals one job — the
// programmatic equivalent of POST /v1/jobs. It returns ErrDraining or
// ErrQueueFull for the retryable rejections; any other error is a
// validation failure (HTTP 400 territory).
func (s *Server) SubmitJob(req JobRequest) (JobStatus, error) {
	if s.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	j, err := s.makeJob(id, req)
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	select {
	case s.jobsCh <- j:
	default:
		// Queue full: reject with backpressure and forget the job.
		s.mu.Lock()
		delete(s.jobs, id)
		for k, v := range s.order {
			if v == id {
				s.order = append(s.order[:k], s.order[k+1:]...)
				break
			}
		}
		s.mu.Unlock()
		j.cancel()
		s.jobsRejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	// Journal after the enqueue commits, before the client sees 202: a
	// crash in between loses only a job whose acceptance was never
	// acknowledged.
	s.recordJournal(JournalRecord{Op: "submit", ID: id, Req: &req})
	s.jobsSubmitted.Inc()
	return j.status(), nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	st, err := s.SubmitJob(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDraining):
		s.rejectRetryable(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, ErrQueueFull):
		s.rejectRetryable(w, http.StatusTooManyRequests, "job queue full")
	default:
		e := apiError{Error: err.Error()}
		var ve *verifyError
		if errors.As(err, &ve) {
			e.Diagnostics = ve.diags
		}
		writeJSON(w, http.StatusBadRequest, e)
	}
}

// jobFor resolves the path's job ID, writing a 404 if unknown.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown job %q", id)})
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.cancel()
	// A job still queued is finished right here, atomically: the worker
	// that eventually dequeues it sees the terminal state and skips it
	// (job.start). If the transition loses the race — a worker got
	// there first — the canceled context stops the running simulation
	// between kernel events.
	j.finishFrom(StateQueued, StateCanceled, "canceled before start")
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	res, ok := j.result()
	if !ok {
		writeJSON(w, http.StatusConflict, j.status())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleTrace serves a traced job's Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). 404 if the job didn't request tracing,
// 409 while the trace is still being captured.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if !j.traceWanted {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("job %q was not submitted with trace=true", j.id)})
		return
	}
	data := j.traceBytes()
	if data == nil {
		writeJSON(w, http.StatusConflict, j.status())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// checkpointedJob resolves the path's job and its recording for the
// time-travel endpoints: 404 for unknown jobs and for jobs submitted
// without checkpoints=true, 409 while the recording is still being
// captured. The returned recording is non-nil exactly when ok.
func (s *Server) checkpointedJob(w http.ResponseWriter, r *http.Request) (*job, *replay.Recording, bool) {
	j := s.jobFor(w, r)
	if j == nil {
		return nil, nil, false
	}
	if !j.checkpoints {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("job %q was not submitted with checkpoints=true", j.id)})
		return nil, nil, false
	}
	rec := j.recording()
	if rec == nil {
		writeJSON(w, http.StatusConflict, j.status())
		return nil, nil, false
	}
	return j, rec, true
}

// queryU64 parses an unsigned query parameter, defaulting when absent.
func queryU64(r *http.Request, name string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want an unsigned cycle count", name, v)
	}
	return n, nil
}

// handleReplay re-executes a window [from,to) of a checkpointed job's
// recording. Without trace=true it returns the mid-run Stats and energy
// at the window's end boundary; with trace=true it returns the window's
// Chrome trace-event JSON — the trace of any slice of the run. Each
// request rebuilds the cell and re-runs it from cycle 0, at most the
// cost of one plain run. Digest marks crossed during the re-execution
// are verified against the recording, so a served window is evidence,
// not a guess.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.checkpointedJob(w, r)
	if !ok {
		return
	}
	from, err := queryU64(r, "from", 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	to, err := queryU64(r, "to", rec.End())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if to > rec.End() {
		to = rec.End()
	}
	if from >= to {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("empty window [%d,%d) (recording covers [0,%d))", from, to, rec.End())})
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "true" || r.URL.Query().Get("trace") == "1"
	var sinks []trace.Sink
	var chrome bytes.Buffer
	var cw *trace.ChromeWriter
	if wantTrace {
		cw = trace.NewChromeWriter(&chrome)
		sinks = append(sinks, cw)
	}
	st, err := rec.Replay(r.Context(), from, to, sinks...)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if wantTrace {
		if err := cw.Close(); err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(chrome.Bytes())
		return
	}
	writeJSON(w, http.StatusOK, ReplayResponse{
		ID: j.id, From: from, To: to, End: rec.End(),
		Interval: rec.Interval(), Marks: len(rec.Marks()),
		Stats: st, Energy: experiments.EnergyOf(st),
	})
}

// handleBisect runs a first-divergence bisection between the job's cell
// and the same cell under the setup named by ?against=. Both sides are
// re-recorded fresh (the stored recording's marks anchor nothing across
// digest scopes), so this is a debugging endpoint costing about two full
// simulations; it runs synchronously on the request.
func (s *Server) handleBisect(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.checkpointedJob(w, r)
	if !ok {
		return
	}
	against := r.URL.Query().Get("against")
	if against == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing against=<setup> query parameter"})
		return
	}
	sb, err := experiments.SetupByName(against)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	c := j.cells[0]
	p, err := workload.ByName(c.Benchmark)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return // unreachable: validated at submit
	}
	sa, err := experiments.SetupByName(c.Setup)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return // unreachable: validated at submit
	}
	o := experiments.Options{Cores: c.Cores, CBEntries: c.Entries, Limit: c.Limit, Context: r.Context()}
	rp, err := experiments.BisectBenchmark(p, c.SyncStyle(), sa, o, sb, o, rec.Interval())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, BisectResponse{
		ID: j.id, A: rp.ALabel, B: rp.BLabel,
		Scope: rp.Scope.String(), Interval: rp.Interval, MarksCompared: rp.MarksCompared,
		Diverged: rp.Diverged, Cycle: rp.Cycle, Components: rp.Components,
		AEvent: rp.AEvent, BEvent: rp.BEvent, AEnd: rp.AEnd, BEnd: rp.BEnd,
		Report: rp.String(),
	})
}

// handleCycles serves a cycle-accounted job's aggregated cycle stacks:
// per setup, the total core cycles across the job's benchmarks split by
// accounting category. 404 unless the job was submitted with
// cycles=true, 409 while cells are still running.
func (s *Server) handleCycles(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if len(j.cells) == 0 || !j.cells[0].Cycles {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("job %q was not submitted with cycles=true", j.id)})
		return
	}
	res, ok := j.result()
	if !ok {
		writeJSON(w, http.StatusConflict, j.status())
		return
	}
	// Aggregate per setup in first-seen order (the request's cell order,
	// so the response follows the submitted setup order).
	agg := map[string]*SetupCycles{}
	var order []string
	for _, cell := range res.Cells {
		var pl cellPayload
		if err := json.Unmarshal(cell.Data, &pl); err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("decoding cell payload: %v", err)})
			return
		}
		if pl.Stats.CycleStack == nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("cell %s/%s has no cycle stack", pl.Spec.Benchmark, pl.Spec.Setup)})
			return
		}
		sc := agg[pl.Spec.Setup]
		if sc == nil {
			sc = &SetupCycles{Setup: pl.Spec.Setup, Categories: map[string]uint64{}}
			agg[pl.Spec.Setup] = sc
			order = append(order, pl.Spec.Setup)
		}
		sc.TotalCycles += pl.Stats.CycleStack.TotalCycles()
		for cat, n := range pl.Stats.CycleStack.Totals() {
			if n > 0 {
				sc.Categories[cycles.Category(cat).String()] += n
			}
		}
	}
	out := CyclesResponse{ID: j.id}
	for _, name := range order {
		out.Setups = append(out.Setups, *agg[name])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEvents streams the job's event log as NDJSON: everything so far
// immediately, then live events until the job reaches a terminal state
// or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		evs, terminal, wake := j.eventsSince(idx)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		idx += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if len(evs) == 0 && terminal {
			return
		}
		if wake == nil {
			continue // more events arrived while writing; loop again
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleVerify statically verifies a client-supplied thread-program set
// (wire format: internal/isa/verify.WireRequest) without simulating it.
// Untrusted programs default to strict mode, where acceptance proves
// unconditional termination within the reported budget. A malformed
// request body is the only 400; a program that fails verification gets
// a 200 with ok=false and the per-instruction diagnostic list — the
// analysis itself succeeded.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verify.WireRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	progs, opts, err := req.Decode()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	set := verify.Threads(progs, opts)
	resp := VerifyResponse{
		OK:     set.OK(),
		Mode:   opts.Mode.String(),
		Budget: set.Budget(),
	}
	for _, tr := range set.Threads {
		resp.CycleLimit += tr.CycleLimit()
		resp.Threads = append(resp.Threads, VerifyThread{
			Budget: tr.Budget, SpinSites: tr.SpinSites,
			Barriers: tr.Barriers, MemOps: tr.MemOps, Findings: len(tr.Diags),
		})
	}
	for _, d := range set.AllDiags() {
		resp.Diagnostics = append(resp.Diagnostics, d.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}

// handleMetrics exports the daemon's metrics registry in the Prometheus
// text format: queue depth, worker utilization, cache hit rate, the
// aggregate simulated-vs-wall-clock rate, and the simulator latency
// histograms fed by every fresh cell.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
