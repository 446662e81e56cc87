// Command cbsim runs one benchmark under one protocol configuration and
// prints the full statistics of the run.
//
// Usage:
//
//	cbsim [-bench name] [-setup name] [-cores N] [-style scalable|naive] [-entries N]
//	      [-trace N] [-trace-chrome out.json] [-chaos spec] [-seed N] [-watchdog N]
//
// -chaos enables the deterministic fault-injection layer (message
// delays, eviction storms, spurious wakes, LLC jitter — see
// internal/chaos for the spec grammar, e.g. "all" or
// "noc-delay=0.01,evict-storm=0.05"). -seed picks the fault stream;
// the same spec and seed replay the same faults. A chaos run arms the
// liveness watchdog automatically (override with -watchdog, 0
// disables); if the run deadlocks or the watchdog fires, cbsim prints a
// per-core dump of where every core is stuck.
//
// -trace-chrome writes the whole run as Chrome trace-event JSON: open it
// in chrome://tracing or https://ui.perfetto.dev to see per-tile
// timelines of sync phases, critical sections, callback block/wake
// episodes, and network messages on a shared cycle axis.
//
// Time-travel debugging (see internal/replay):
//
// -replay=FROM[:TO] records the run with digest checkpoints
// (-checkpoint-interval cycles apart), then re-executes only the
// [FROM,TO) window with the -trace/-trace-chrome sinks attached — a
// Chrome trace of any window without re-simulating (or re-tracing) the
// prefix. The printed stats are the machine's cumulative stats at the
// window's end boundary. -spill=DIR persists each recording's digest
// marks as a versioned JSON blob.
//
// Cycle accounting (see internal/cycles):
//
// -cycleprofile=out.pb.gz sweeps the benchmark across ALL standard
// setups with per-core cycle accounting attached and writes the
// resulting cycle stacks as a gzipped pprof profile — `go tool pprof
// -top out.pb.gz` shows where the simulated time goes (compute, cache
// and coherence stalls, spin-wait vs cb-blocked, barrier wait, NoC
// transit, idle), with setup/core/sync-phase as the call-stack frames.
// -cyclefolded=out.txt writes the same data as folded stacks text
// (flamegraph.pl input). Either flag also prints the per-setup
// category-share table instead of the usual single-run stats.
//
// -bisect=setupA,setupB runs the benchmark under both setups and
// reports the first divergent cycle, the component digests that differ
// there, and the first differing trace event. -chaos and -seed apply to
// side B only, so "-bisect CB-One,CB-One -chaos evict-storm=0.05"
// bisects a fault-free run against its chaos twin and pinpoints the
// first injected fault that perturbed machine state.
//
// Example:
//
//	cbsim -bench radiosity -setup CB-One -cores 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/chaos"
	"repro/internal/cycles"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cli holds the parsed command-line configuration.
type cli struct {
	bench, setupName, style string
	cores, entries, traceN  int
	chromePath, chaosSpec   string
	seed, watchdog          uint64
	replayWin, bisectPair   string
	ckInterval              uint64
	spillDir                string
	cycleProfile            string
	cycleFolded             string
}

func main() {
	var c cli
	flag.StringVar(&c.bench, "bench", "radiosity", "benchmark name (see -list)")
	flag.StringVar(&c.setupName, "setup", "CB-One", "protocol setup: Invalidation, BackOff-{0,5,10,15}, CB-All, CB-One")
	flag.IntVar(&c.cores, "cores", 64, "simulated cores (perfect square, <= 64)")
	flag.StringVar(&c.style, "style", "scalable", "synchronization style: scalable (CLH+TreeSR) or naive (T&T&S+SR)")
	flag.IntVar(&c.entries, "entries", 4, "callback directory entries per bank")
	flag.IntVar(&c.traceN, "trace", 0, "print the last N protocol/network trace events")
	flag.StringVar(&c.chromePath, "trace-chrome", "", "write a Chrome trace-event JSON file (view in chrome://tracing or Perfetto)")
	flag.StringVar(&c.chaosSpec, "chaos", "", "fault-injection spec (e.g. all, or noc-delay=0.01,evict-storm=0.05; empty/off = disabled)")
	flag.Uint64Var(&c.seed, "seed", 1, "fault-injection seed (same spec+seed replays the same faults)")
	flag.Uint64Var(&c.watchdog, "watchdog", 0, "liveness watchdog window in cycles (0 = default: armed only under -chaos)")
	flag.StringVar(&c.replayWin, "replay", "", "record the run, then re-execute only the window FROM[:TO) with tracing attached (cycles; TO defaults to the run's end)")
	flag.StringVar(&c.bisectPair, "bisect", "", "bisect setupA,setupB to the first divergent cycle and component; -chaos/-seed apply to side B only")
	flag.Uint64Var(&c.ckInterval, "checkpoint-interval", 0, "replay checkpoint/digest-mark cadence K in cycles (0 = default 16384)")
	flag.StringVar(&c.spillDir, "spill", "", "spill recording digest marks as versioned JSON blobs into this directory")
	flag.StringVar(&c.cycleProfile, "cycleprofile", "", "sweep all standard setups with cycle accounting and write a gzipped pprof profile (view with go tool pprof)")
	flag.StringVar(&c.cycleFolded, "cyclefolded", "", "sweep all standard setups with cycle accounting and write folded stacks text (flamegraph.pl input)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		ps := workload.Profiles()
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Suite != ps[j].Suite {
				return ps[i].Suite < ps[j].Suite
			}
			return ps[i].Name < ps[j].Name
		})
		for _, p := range ps {
			fmt.Printf("%-14s (%s)\n", p.Name, p.Suite)
		}
		return
	}
	// Validate the core count before any construction: a bad value would
	// otherwise only surface as a deep machine-build panic.
	if err := machine.ValidateCores(c.cores); err != nil {
		fmt.Fprintln(os.Stderr, "cbsim:", err)
		os.Exit(1)
	}
	if err := run(c); err != nil {
		// A liveness failure carries a per-core dump: print where every
		// core was stuck, not just that the run made no progress.
		var npe *machine.NoProgressError
		if errors.As(err, &npe) {
			fmt.Fprintln(os.Stderr, npe.Dump())
		}
		fmt.Fprintln(os.Stderr, "cbsim:", err)
		os.Exit(1)
	}
}

func run(c cli) error {
	p, err := workload.ByName(c.bench)
	if err != nil {
		return err
	}
	setup, err := experiments.SetupByName(c.setupName)
	if err != nil {
		return err
	}
	st := workload.StyleScalable
	switch strings.ToLower(c.style) {
	case "scalable":
	case "naive":
		st = workload.StyleNaive
	default:
		return fmt.Errorf("unknown style %q", c.style)
	}
	// Statically verify the generated programs up front: a finding is a
	// generator bug, and per-instruction diagnostics here beat a deep
	// simulation failure (or silent corruption) minutes in. Generation
	// is deterministic, so the simulated run sees identical programs.
	if err := workload.Generate(p, c.cores, st, setup.Flavor()).Verify().Err(); err != nil {
		return fmt.Errorf("static verification of %s/%s programs failed: %w", p.Name, setup.Name, err)
	}
	// ^C / SIGTERM aborts the simulation cleanly between kernel events.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	var ring *trace.Ring
	opts := experiments.Options{Cores: c.cores, CBEntries: c.entries, Context: ctx, Watchdog: c.watchdog}
	spec, err := chaos.Parse(c.chaosSpec)
	if err != nil {
		return err
	}
	if spec.Active() {
		opts.Chaos = spec
		opts.ChaosSeed = c.seed
		if c.watchdog == 0 {
			opts.Watchdog = machine.DefaultWatchdogWindow
		}
	}
	ro := replay.Options{Interval: c.ckInterval, SpillDir: c.spillDir}

	if c.bisectPair != "" {
		return runBisect(c, p, st, opts, ro)
	}
	if c.cycleProfile != "" || c.cycleFolded != "" {
		return runCycleProfile(c, st, opts)
	}

	var sinks trace.Multi
	if c.traceN > 0 {
		ring = trace.NewRing(c.traceN)
		sinks = append(sinks, ring)
	}
	var cw *trace.ChromeWriter
	var chromeFile *os.File
	if c.chromePath != "" {
		f, err := os.Create(c.chromePath)
		if err != nil {
			return err
		}
		chromeFile = f
		cw = trace.NewChromeWriter(f)
		sinks = append(sinks, cw)
	}

	var s machine.Stats
	var e energy.Breakdown
	headline := ""
	if c.replayWin != "" {
		// Record untraced, then re-execute only the requested window
		// with the trace sinks attached.
		from, to, err := parseWindow(c.replayWin)
		if err != nil {
			return err
		}
		rec, err := experiments.RecordBenchmark(p, setup, st, opts, ro)
		if err != nil {
			return err
		}
		if to == 0 || to > rec.End() {
			to = rec.End()
		}
		fmt.Fprintf(os.Stderr, "recorded %s/%s: cycles [0,%d), %d digest marks (K=%d)\n",
			p.Name, setup.Name, rec.End(), len(rec.Marks()), rec.Interval())
		s, err = rec.Replay(from, to, sinks...)
		if err != nil {
			return err
		}
		e = experiments.EnergyOf(s)
		headline = fmt.Sprintf(" — replayed window [%d,%d)", from, to)
	} else {
		switch len(sinks) {
		case 0:
		case 1:
			opts.Trace = sinks[0]
		default:
			opts.Trace = sinks
		}
		res, err := experiments.RunBenchmark(p, setup, st, opts)
		if err != nil {
			return err
		}
		s, e = res.Stats, res.Energy
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			return fmt.Errorf("finalizing %s: %w", c.chromePath, err)
		}
		if err := chromeFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", c.chromePath)
	}
	if ring != nil {
		fmt.Fprintf(os.Stderr, "--- last %d trace events (%s) ---\n", ring.Len(), trace.Summarize(ring.Events()))
		ring.Dump(os.Stderr)
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintf(w, "benchmark\t%s (%s, %s sync, %d cores, %s)%s\n", p.Name, p.Suite, st, c.cores, setup.Name, headline)
	fmt.Fprintf(w, "execution time\t%d cycles\n", s.Cycles)
	fmt.Fprintf(w, "instructions\t%d\n", s.Instructions)
	fmt.Fprintf(w, "memory ops\t%d\n", s.MemOps)
	fmt.Fprintf(w, "L1 accesses\t%d (%.1f%% hits)\n", s.L1Accesses, pct(s.L1Hits, s.L1Accesses))
	fmt.Fprintf(w, "LLC accesses\t%d (%d for synchronization, %d misses)\n", s.LLCAccesses, s.LLCSyncAccesses, s.LLCMisses)
	fmt.Fprintf(w, "network\t%d messages, %d flit-hops, %d cycles link wait\n", s.Net.Messages, s.Net.FlitHops, s.Net.LinkWait)
	if s.CBDirAccesses > 0 {
		fmt.Fprintf(w, "callback dir\t%d accesses, %d installs, %d evictions, %d wakes (%d stale)\n",
			s.CBDirAccesses, s.CBInstalls, s.CBEvictions, s.CBWakes, s.CBStaleWakes)
	}
	if spec.Active() {
		cs := s.Chaos
		fmt.Fprintf(w, "chaos (seed %d)\t%d delayed msgs (%d+%d cycles), %d forced evictions, %d spurious wakes, %d wake-delay cycles, %d LLC-jitter cycles\n",
			c.seed, cs.NoCDelays, cs.NoCDelayCycles, cs.HopJitterCycles, cs.ForcedEvictions, cs.SpuriousWakes, cs.WakeDelayCycles, cs.LLCJitterCycles)
	}
	fmt.Fprintf(w, "backoff stall\t%d cycles\n", s.BackoffCycles)
	for k := isa.SyncAcquire; k < isa.NumSyncKinds; k++ {
		if s.SyncEntries[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "sync %s\t%d episodes, mean %.0f cycles, %d LLC accesses\n",
			k, s.SyncEntries[k], s.SyncLatency(k), s.LLCSyncByKind[k])
	}
	fmt.Fprintf(w, "energy (pJ)\tL1 %.3g, LLC %.3g, network %.3g, cbdir %.3g, total %.3g\n",
		e.L1, e.LLC, e.Network, e.CBDir, e.Total())
	return nil
}

// runCycleProfile runs the -cycleprofile/-cyclefolded mode: the
// benchmark under every standard setup with cycle accounting attached,
// writing the per-setup stacks as a gzipped pprof profile and/or folded
// stacks text and printing the category-share table.
func runCycleProfile(c cli, st workload.SyncStyle, opts experiments.Options) error {
	res, err := experiments.RunCycleStacks(c.bench, experiments.StandardSetups(), st, opts)
	if err != nil {
		return err
	}
	write := func(path string, emit func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return f.Close()
	}
	if c.cycleProfile != "" {
		err := write(c.cycleProfile, func(f *os.File) error { return cycles.WritePprof(f, res.Stacks) })
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote pprof cycle profile to %s (go tool pprof -top %s)\n", c.cycleProfile, c.cycleProfile)
	}
	if c.cycleFolded != "" {
		err := write(c.cycleFolded, func(f *os.File) error { return cycles.WriteFolded(f, res.Stacks) })
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote folded cycle stacks to %s\n", c.cycleFolded)
	}
	fmt.Print(res.Table.String())
	return nil
}

// runBisect runs the -bisect mode: the benchmark under two setups (side
// B carrying the -chaos/-seed faults, side A always fault-free) bisected
// to the first divergent cycle.
func runBisect(c cli, p workload.Profile, st workload.SyncStyle, opts experiments.Options, ro replay.Options) error {
	names := strings.Split(c.bisectPair, ",")
	if len(names) != 2 {
		return fmt.Errorf("-bisect wants two comma-separated setups, e.g. CB-One,CB-One or Invalidation,CB-One")
	}
	sa, err := experiments.SetupByName(strings.TrimSpace(names[0]))
	if err != nil {
		return err
	}
	sb, err := experiments.SetupByName(strings.TrimSpace(names[1]))
	if err != nil {
		return err
	}
	oa := opts
	oa.Chaos, oa.ChaosSeed = nil, 0
	rp, err := experiments.BisectBenchmark(p, st, sa, oa, sb, opts, ro)
	if err != nil {
		return err
	}
	fmt.Print(rp.String())
	return nil
}

// parseWindow parses the -replay argument: "FROM" or "FROM:TO" (cycle
// boundaries; TO 0 or omitted means the run's end).
func parseWindow(s string) (from, to uint64, err error) {
	fromStr, toStr, colon := strings.Cut(s, ":")
	if from, err = strconv.ParseUint(fromStr, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("-replay: bad FROM %q", fromStr)
	}
	if colon && toStr != "" {
		if to, err = strconv.ParseUint(toStr, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("-replay: bad TO %q", toStr)
		}
		if to <= from {
			return 0, 0, fmt.Errorf("-replay: empty window [%d,%d)", from, to)
		}
	}
	return from, to, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
