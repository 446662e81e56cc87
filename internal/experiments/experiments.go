// Package experiments regenerates the paper's evaluation (Section 5):
// one runner per table/figure, each producing the rows or series the
// paper reports. See DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for recorded results.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cycles"
	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Setup names one of the evaluated protocol configurations
// (Section 5.2).
type Setup struct {
	Name         string
	Protocol     machine.Protocol
	BackoffLimit int
	CBOne        bool
}

// Flavor returns the synclib flavour programs must use under this setup.
// The quiesce extension runs the callback-all encodings: its guard
// ld_through + ld_cb spin loops map onto MONITOR/MWAIT at the MESI L1.
func (s Setup) Flavor() synclib.Flavor {
	switch s.Protocol {
	case machine.ProtocolQuiesce:
		return synclib.FlavorCBAll
	case machine.ProtocolQueueLock:
		// The LLC queue does the waiting: plain back-off encodings
		// (failing test-style atomics block at the controller).
		return synclib.FlavorBackoff
	}
	return workload.FlavorFor(s.Protocol == machine.ProtocolMESI,
		s.Protocol == machine.ProtocolCallback, s.CBOne)
}

// StandardSetups returns the seven configurations of the paper's figures:
// Invalidation, BackOff-{0,5,10,15}, CB-All, CB-One.
func StandardSetups() []Setup {
	return []Setup{
		{Name: "Invalidation", Protocol: machine.ProtocolMESI},
		{Name: "BackOff-0", Protocol: machine.ProtocolBackoff, BackoffLimit: 0},
		{Name: "BackOff-5", Protocol: machine.ProtocolBackoff, BackoffLimit: 5},
		{Name: "BackOff-10", Protocol: machine.ProtocolBackoff, BackoffLimit: 10},
		{Name: "BackOff-15", Protocol: machine.ProtocolBackoff, BackoffLimit: 15},
		{Name: "CB-All", Protocol: machine.ProtocolCallback},
		{Name: "CB-One", Protocol: machine.ProtocolCallback, CBOne: true},
	}
}

// SetupByName finds a standard setup.
func SetupByName(name string) (Setup, error) {
	for _, s := range StandardSetups() {
		if s.Name == name {
			return s, nil
		}
	}
	return Setup{}, fmt.Errorf("experiments: unknown setup %q", name)
}

// RunEvent reports one simulation (one benchmark x setup cell) starting
// or finishing — the progress hook sweeps and the cbsimd daemon stream
// to clients.
type RunEvent struct {
	Benchmark string
	Setup     string
	// Done distinguishes the completion event (true) from the start
	// event (false). Cycles, Wall, and Err are only set on completion.
	Done bool
	// Cycles is the simulated parallel-section execution time.
	Cycles uint64
	// Wall is the wall-clock time the simulation took — together with
	// Cycles it gives the simulated-vs-wall rate exported by the daemon.
	Wall time.Duration
	Err  error
}

// Options controls run scale.
type Options struct {
	// Context, when non-nil, cancels runs cooperatively: the machine
	// polls it between kernel events and sweeps check it before starting
	// each cell. A canceled run returns ctx.Err().
	Context context.Context
	// Progress, when set, receives a RunEvent as each simulation starts
	// and finishes. Sweeps invoke it from worker goroutines (serialized,
	// like Logf).
	Progress func(RunEvent)
	// Cores is the simulated core count (default 64, Table 2; smaller
	// values speed up exploratory runs).
	Cores int
	// CBEntries sizes the callback directories (default 4).
	CBEntries int
	// Limit is the simulation cycle budget per run (default 200M).
	Limit uint64
	// Benchmarks restricts suite sweeps to the named profiles (nil
	// means all 19).
	Benchmarks []string
	// Parallelism is the number of worker goroutines sweeps may use.
	// Each (benchmark x setup) cell runs on its own goroutine with its
	// own Machine and Kernel, so results are byte-identical to a serial
	// sweep. Defaults to runtime.GOMAXPROCS(0); 1 forces serial
	// execution.
	Parallelism int
	// Verbose enables per-run progress lines via Logf.
	Logf func(format string, args ...any)
	// Trace, when set, receives the kinds it declares of every run's
	// event stream.
	Trace trace.Sink
	// Metrics, when set, accumulates observability histograms across
	// runs: sync-episode latencies, spin waits, callback wake latencies,
	// directory occupancy, and per-link NoC utilization. The histograms
	// are atomic, so one SimMetrics may be shared by parallel sweeps.
	Metrics *obs.SimMetrics

	// Chaos, when non-nil and active, runs every cell under the
	// deterministic fault-injection layer seeded by ChaosSeed (see
	// internal/chaos). Runtime invariant checks are enabled with it.
	Chaos     *chaos.Spec
	ChaosSeed uint64
	// Watchdog, when nonzero, arms the machines' liveness watchdog: a
	// run with no global progress for Watchdog cycles fails with
	// machine.ErrNoProgress and a per-core dump.
	Watchdog uint64

	// CycleStacks attaches the cycle-accounting layer to every run:
	// Result.Stats.CycleStack carries the per-core attribution, and the
	// end-of-run conservation invariant is checked. Observational only —
	// all other Stats are byte-identical with it off.
	CycleStacks bool

	// postRun, when set, is called with the machine after a successful
	// run, before Stats are collected (chaos sweeps quiesce the event
	// queue, check final invariants, and snapshot memory here).
	postRun func(m *machine.Machine, g *workload.Generated) error

	// safe records that Logf and Trace have already been wrapped for
	// concurrent use, so repeated fill calls do not stack mutexes.
	safe bool
}

// profiles returns the benchmark set selected by the options.
func (o Options) profiles() ([]workload.Profile, error) {
	if len(o.Benchmarks) == 0 {
		return workload.Profiles(), nil
	}
	var ps []workload.Profile
	for _, name := range o.Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func (o Options) fill() Options {
	if o.Cores == 0 {
		o.Cores = 64
	}
	if o.CBEntries == 0 {
		o.CBEntries = 4
	}
	if o.Limit == 0 {
		o.Limit = 200_000_000
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Parallelism > 1 && !o.safe {
		// Cells run concurrently but share the log, progress, and trace
		// sinks: serialize the fan-in so sweeps are race-free.
		var mu sync.Mutex
		logf := o.Logf
		o.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logf(format, args...)
		}
		if o.Progress != nil {
			var pmu sync.Mutex
			progress := o.Progress
			o.Progress = func(e RunEvent) {
				pmu.Lock()
				defer pmu.Unlock()
				progress(e)
			}
		}
		if o.Trace != nil {
			o.Trace = trace.NewLocked(o.Trace)
		}
		o.safe = true
	}
	return o
}

// ctxErr reports the options context's cancellation error, or nil when
// no context is set or it is still live.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// forEach runs fn(0) .. fn(n-1) across up to o.Parallelism worker
// goroutines and waits for all of them. Every index runs exactly once;
// with Parallelism <= 1 the calls happen inline, in order. The returned
// error is deterministic regardless of scheduling: the one from the
// lowest failing index.
func (o Options) forEach(n int, fn func(i int) error) error {
	workers := o.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := o.ctxErr(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				// A canceled context skips the remaining cells but
				// still records a deterministic per-index error.
				if err := o.ctxErr(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs fn(0) .. fn(n-1) over the options' bounded worker pool —
// the same engine RunSuite and the figure runners use, exported so other
// subsystems (the cbsimd daemon) can layer per-cell work such as cache
// lookups and progress streaming over it. Every index runs exactly once;
// the returned error is the one from the lowest failing index regardless
// of scheduling. When o.Context is canceled, remaining cells are skipped
// and Sweep returns ctx.Err().
func Sweep(o Options, n int, fn func(i int) error) error {
	return o.fill().forEach(n, fn)
}

// Result is the outcome of one benchmark x setup run.
type Result struct {
	Stats  machine.Stats
	Energy energy.Breakdown
}

// Time returns the parallel-section execution time in cycles.
func (r Result) Time() float64 { return float64(r.Stats.Cycles) }

// Traffic returns the network traffic in flit-hops (the GARNET metric).
func (r Result) Traffic() float64 { return float64(r.Stats.Net.FlitHops) }

// machineConfig derives the machine configuration for a setup: every
// option that changes machine behavior flows through it.
func machineConfig(s Setup, o Options) machine.Config {
	cfg := machine.Default(s.Protocol)
	cfg.Cores = o.Cores
	cfg.BackoffLimit = s.BackoffLimit
	cfg.CBEntriesPerBank = o.CBEntries
	cfg.Chaos = o.Chaos
	cfg.ChaosSeed = o.ChaosSeed
	cfg.Watchdog = o.Watchdog
	return cfg
}

// buildMachine constructs the machine for a setup.
func buildMachine(s Setup, o Options) *machine.Machine {
	return machine.New(machineConfig(s, o), synclib.IsPrivate)
}

// runGenerated loads and runs a generated workload, returning stats and
// energy. The options context cancels the simulation between kernel
// events; cancellation is returned as a bare ctx.Err() so callers can
// errors.Is it directly.
func runGenerated(g *workload.Generated, s Setup, o Options) (Result, error) {
	m := buildMachine(s, o)
	if o.Trace != nil {
		m.AttachTrace(o.Trace)
	}
	if o.Metrics != nil {
		// The collector's block-matching state is per-run, so each run
		// attaches a fresh one feeding the shared histograms.
		m.AttachTrace(trace.NewMetricsCollector(o.Metrics))
	}
	if o.CycleStacks {
		m.AttachCycles(cycles.NewAccumulator(len(m.Cores)))
	}
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	if o.Progress != nil {
		o.Progress(RunEvent{Benchmark: g.Profile.Name, Setup: s.Name})
	}
	start := time.Now()
	err := m.RunContext(o.Context, o.Limit)
	wall := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%s under %s: %w", g.Profile.Name, s.Name, err)
	}
	if o.Progress != nil {
		o.Progress(RunEvent{Benchmark: g.Profile.Name, Setup: s.Name,
			Done: true, Cycles: m.K.Now(), Wall: wall, Err: err})
	}
	if err != nil {
		return Result{}, err
	}
	if o.postRun != nil {
		if err := o.postRun(m, g); err != nil {
			return Result{}, fmt.Errorf("%s under %s: %w", g.Profile.Name, s.Name, err)
		}
	}
	if o.Metrics != nil {
		m.ObserveMetrics(o.Metrics)
	}
	st := m.Stats()
	e := energy.Compute(energy.Counts{
		L1Accesses:      st.L1Accesses,
		LLCTagAccesses:  st.LLCAccesses - st.LLCDataAccesses,
		LLCDataAccesses: st.LLCDataAccesses,
		CBDirAccesses:   st.CBDirAccesses,
		FlitHops:        st.Net.FlitHops,
	}, energy.DefaultParams())
	return Result{Stats: st, Energy: e}, nil
}

// RunBenchmark runs one benchmark profile under one setup with the given
// synchronization style.
func RunBenchmark(p workload.Profile, s Setup, style workload.SyncStyle, o Options) (Result, error) {
	o = o.fill()
	g := workload.Generate(p, o.Cores, style, s.Flavor())
	return runGenerated(g, s, o)
}

// RunBenchmarkCustom runs with an explicit lock/barrier combination
// (Figure 23).
func RunBenchmarkCustom(p workload.Profile, s Setup, lk workload.LockKind, bk workload.BarrierKind, o Options) (Result, error) {
	o = o.fill()
	g := workload.GenerateCustom(p, o.Cores, lk, bk, s.Flavor())
	return runGenerated(g, s, o)
}
