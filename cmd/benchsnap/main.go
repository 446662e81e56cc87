// Command benchsnap captures a machine-readable performance snapshot of
// the simulator: hot-path ns/op and allocs/op via the testing package's
// programmatic benchmark driver, plus the aggregate simulated-cycles-
// per-wall-second rate from a small reference sweep (the same
// metrics.SimRate estimator the daemon exports at /metrics).
//
// Usage:
//
//	benchsnap [-o BENCH_pr.json] [-cores N] [-bench a,b,c]
//
// CI runs it via `make bench-snapshot` and uploads the JSON as an
// artifact, giving every PR a comparable perf record without blocking
// the gate on machine-speed-dependent thresholds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// snapshot is the BENCH_pr.json schema. Fields are stable: downstream
// tooling diffs snapshots across PRs.
type snapshot struct {
	GeneratedUnix int64                `json:"generated_unix"`
	GoVersion     string               `json:"go_version"`
	GOOS          string               `json:"goos"`
	GOARCH        string               `json:"goarch"`
	NumCPU        int                  `json:"num_cpu"`
	Benchmarks    map[string]benchPerf `json:"benchmarks"`
	SimRate       simRate              `json:"sim_rate"`
	Kernel        kernelTelemetry      `json:"kernel_telemetry"`
}

type benchPerf struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// EventsPerOp is the kernel events one op executes, for whole-cell
	// benchmarks (deterministic, so the gate pins it exactly).
	EventsPerOp uint64 `json:"events_per_op,omitempty"`
	// RatioToPlain is, for an observed spin cell, the median per-round
	// ratio of its time to the plain cell's (see alternate).
	RatioToPlain float64 `json:"ratio_to_plain,omitempty"`
}

// kernelTelemetry is the two-tier scheduler's internal counters over the
// spin-wave reference workload: how much traffic the wheel absorbed
// versus the overflow heap, and the queue-depth high-water mark. These
// are diagnostics for reading a perf diff, not gated values.
type kernelTelemetry struct {
	WheelPushes uint64  `json:"wheel_pushes"`
	HeapPushes  uint64  `json:"heap_pushes"`
	Migrations  uint64  `json:"migrations"`
	Skips       uint64  `json:"skips"`
	MaxPending  uint64  `json:"max_pending_events"`
	WheelShare  float64 `json:"wheel_share"`
}

type simRate struct {
	Benchmarks      []string `json:"benchmarks"`
	Setup           string   `json:"setup"`
	Cores           int      `json:"cores"`
	Cells           uint64   `json:"cells"`
	SimulatedCycles uint64   `json:"simulated_cycles"`
	WallSeconds     float64  `json:"wall_seconds"`
	CyclesPerSecond float64  `json:"cycles_per_second"`
}

func main() {
	out := flag.String("o", "BENCH_pr.json", "output file")
	cores := flag.Int("cores", 16, "simulated cores for the sim-rate sweep")
	benchList := flag.String("bench", "radiosity,ocean,dedup", "benchmarks for the sim-rate sweep")
	flag.Parse()

	if err := run(*out, *cores, strings.Split(*benchList, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(out string, cores int, benches []string) error {
	snap := snapshot{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Benchmarks:    map[string]benchPerf{},
	}

	// Kernel hot path: one schedule + one step per iteration — the inner
	// loop of every simulated cycle. Must stay 0 allocs/op.
	snap.Benchmarks["kernel_hot_path"] = record(testing.Benchmark(func(b *testing.B) {
		k := sim.New()
		var a sim.Actor = nopActor{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.ScheduleActor(1, a, nil, 0)
			k.Step()
		}
	}))

	// Spin-wave: the ISSUE's target distribution — 64 parked cores with
	// known short-period wakes plus 1024 sparse far-future events. The
	// wheel must hold a decisive lead over the heap-only reference here;
	// the gate pins the ratio rather than absolute ns/op.
	snap.Benchmarks["spin_wave_wheel"] = record(testing.Benchmark(func(b *testing.B) {
		spinWave(b, sim.New())
	}))
	snap.Benchmarks["spin_wave_heap"] = record(testing.Benchmark(func(b *testing.B) {
		spinWave(b, sim.NewHeapOnly())
	}))

	// Telemetry from a fixed-length spin-wave run on the wheel kernel:
	// shows where events landed and the queue-depth high-water mark.
	{
		k := sim.New()
		spinWaveSetup(k)
		for i := 0; i < 1_000_000; i++ {
			k.Step()
		}
		tele := k.Telemetry()
		share := 0.0
		if tot := tele.WheelPushes + tele.HeapPushes; tot > 0 {
			share = float64(tele.WheelPushes) / float64(tot)
		}
		snap.Kernel = kernelTelemetry{
			WheelPushes: tele.WheelPushes,
			HeapPushes:  tele.HeapPushes,
			Migrations:  tele.Migrations,
			Skips:       tele.Skips,
			MaxPending:  tele.MaxPending,
			WheelShare:  share,
		}
	}

	// Full Table 2 machine construction (64 tiles, caches, directories).
	snap.Benchmarks["machine_new_64"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := machine.New(machine.Default(machine.ProtocolCallback), nil)
			if m.Mesh.Nodes() != 64 {
				b.Fatal("bad machine")
			}
		}
	}))

	// Generation of one 64-core thread set, as every fresh cell does
	// before it builds its machine. Its programs share one instruction
	// table; the gate pins allocs/op and bounds bytes/op.
	genP, err := workload.ByName("radiosity")
	if err != nil {
		return err
	}
	snap.Benchmarks["generate_64"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := workload.Generate(genP, 64, workload.StyleScalable, synclib.FlavorCBOne); len(g.Programs) != 64 {
				b.Fatal("bad thread set")
			}
		}
	}))

	// Program verification of one 16-core thread set, as cbsimd checks
	// each new combo at submit time. The set is generated once, outside
	// the timed loop; the gate pins allocs/op and bounds bytes/op.
	verP, err := workload.ByName("fluidanimate")
	if err != nil {
		return err
	}
	verSet := workload.Generate(verP, 16, workload.StyleScalable, synclib.FlavorCBOne)
	snap.Benchmarks["verify_set_16"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := verSet.Verify().Err(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Sim rate: a reference sweep under CB-One, folded through the same
	// SimRate estimator cbsimd exports as cbsimd_sim_cycles_per_wall_second.
	setup, err := experiments.SetupByName("CB-One")
	if err != nil {
		return err
	}
	var rate metrics.SimRate
	for _, name := range benches {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.RunBenchmark(p, setup, workload.StyleScalable, experiments.Options{Cores: cores})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rate.Observe(res.Stats.Cycles, time.Since(start))
	}
	// Checkpoint-recording overhead: the same reference cell with the
	// recorder off (plain RunBenchmark) and on (RecordBenchmark at the
	// default digest-mark cadence). The gate bounds the on/off wall-clock
	// ratio; kernel_hot_path above is the recording-off 0 allocs/op
	// guarantee — the replay layer never touches the kernel's inner loop.
	ckP, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	// Parallelism 1: each entry is a single cell, and a wider default
	// (GOMAXPROCS) would wrap Logf in a mutex closure, making the
	// allocation counts depend on the host's CPU count.
	ckOpts := experiments.Options{Cores: cores, Parallelism: 1}
	snap.Benchmarks["replay_record_off"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunBenchmark(ckP, setup, workload.StyleScalable, ckOpts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	snap.Benchmarks["replay_record_on"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RecordBenchmark(ckP, setup, workload.StyleScalable, ckOpts, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// A whole Invalidation cell whose memory ops are almost all iterations
	// of parkable spin loops: its event count pins the spin-parking fast
	// path (without it the cell runs ~25x the events).
	spinP, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	inv, err := experiments.SetupByName("Invalidation")
	if err != nil {
		return err
	}
	runCell := func(src replay.Source, observe func(*machine.Machine)) (*machine.Machine, error) {
		m, err := src.Build()
		if err == nil {
			observe(m)
			err = m.Run(src.Limit)
		}
		return m, err
	}
	wholeCell := func(src replay.Source, observe func(*machine.Machine)) benchPerf {
		var events uint64
		r := record(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := runCell(src, observe)
				if err != nil {
					b.Fatal(err)
				}
				events = m.K.Executed()
			}
		}))
		r.EventsPerOp = events
		return r
	}
	// timed runs a cell spinRuns times and returns the time taken.
	timed := func(src replay.Source, observe func(*machine.Machine)) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < spinRuns; i++ {
				if _, err := runCell(src, observe); err != nil {
					panic(err) // the same cell ran clean in wholeCell
				}
			}
			return time.Since(start)
		}
	}
	// The observed twin of a spin cell has a metrics collector attached,
	// as cbsimd runs every fresh cell: the gate pins its events and
	// allocations and bounds its time against the plain cell's, so
	// observing neither formats per message nor forces parked loops to
	// settle per event.
	sm := obs.NewSimMetrics(obs.NewRegistry())
	collect := func(m *machine.Machine) { m.AttachTrace(trace.NewMetricsCollector(sm)) }
	spinPair := func(name string, src replay.Source) {
		plain := func(*machine.Machine) {}
		snap.Benchmarks[name] = wholeCell(src, plain)
		observed := wholeCell(src, collect)
		observed.RatioToPlain = alternate(spinRounds, timed(src, plain), timed(src, collect))
		snap.Benchmarks[name+"_observed"] = observed
	}
	spinPair("mesi_spin_cell", experiments.BenchmarkSource(spinP, inv, workload.StyleNaive, experiments.Options{Cores: 16}))
	// A whole BackOff-0 cell whose back-off spins mostly read flags
	// homed on the spinner's own bank: its event count pins the parking
	// of those loops, and with a metrics collector attached they still
	// park, settling one back-off wait per skipped iteration in bulk.
	backoff, err := experiments.SetupByName("BackOff-0")
	if err != nil {
		return err
	}
	spinPair("vips_spin_cell", experiments.BenchmarkSource(spinP, backoff, workload.StyleScalable, experiments.Options{Cores: 16}))

	// A whole CB-All cell with 1-entry callback directories: the install,
	// evict and stale-wake path of callback-64, with no spinning. Its
	// event count pins the kernel's events on that path.
	cbAll, err := experiments.SetupByName("CB-All")
	if err != nil {
		return err
	}
	cbP, err := workload.ByName("radiosity")
	if err != nil {
		return err
	}
	snap.Benchmarks["cb_cell"] = wholeCell(experiments.BenchmarkSource(cbP, cbAll, workload.StyleScalable,
		experiments.Options{Cores: 16, CBEntries: 1}), func(*machine.Machine) {})

	cells, cycles, wall := rate.Snapshot()
	snap.SimRate = simRate{
		Benchmarks:      benches,
		Setup:           setup.Name,
		Cores:           cores,
		Cells:           cells,
		SimulatedCycles: cycles,
		WallSeconds:     wall.Seconds(),
		CyclesPerSecond: rate.CyclesPerSecond(),
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s (kernel %.1f ns/op, %d allocs/op; sim %.3g cycles/s)\n",
		out, snap.Benchmarks["kernel_hot_path"].NsPerOp,
		snap.Benchmarks["kernel_hot_path"].AllocsPerOp,
		snap.SimRate.CyclesPerSecond)
	return nil
}

// spinRounds and spinRuns shape the observed spin cells' time ratio:
// spinRounds rounds of spinRuns runs of each side.
const spinRounds, spinRuns = 10, 10

// alternate times a and b in rounds, a first in even rounds and b first
// in odd ones, and returns the median of the per-round ratios b/a. The
// host's speed drifts over seconds: one back-to-back pair of runs reads
// that drift as a ratio, while here it biases alternate rounds up and
// down, and the median cancels it. rounds must be even and positive.
func alternate(rounds int, a, b func() time.Duration) float64 {
	ratios := make([]float64, rounds)
	for r := range ratios {
		var ta, tb time.Duration
		if r%2 == 0 {
			ta, tb = a(), b()
		} else {
			tb, ta = b(), a()
		}
		ratios[r] = float64(tb) / float64(ta)
	}
	sort.Float64s(ratios)
	return (ratios[rounds/2-1] + ratios[rounds/2]) / 2
}

// nopActor is an event that does nothing.
type nopActor struct{}

func (nopActor) Act(any, uint64) {}

// spinWaveActor models a parked core with a known next wake: it fires
// and immediately reschedules itself period cycles out.
type spinWaveActor struct {
	k      *sim.Kernel
	period uint64
}

func (a *spinWaveActor) Act(data any, arg uint64) {
	a.k.ScheduleActor(a.period, a, nil, 0)
}

// spinWaveSetup populates k with the spin-wave distribution: 64 spinners
// on short staggered periods plus 1024 sparse far-future events. Mirrors
// BenchmarkKernelSpinWave in internal/sim.
func spinWaveSetup(k *sim.Kernel) {
	const spinners = 64
	sp := make([]spinWaveActor, spinners)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		k.ScheduleActor(sp[i].period, &sp[i], nil, 0)
	}
	idle := &spinWaveActor{k: k, period: 2_000_000_000}
	for i := 0; i < 1024; i++ {
		k.AtActor(1_000_000_000+uint64(i), idle, nil, 0)
	}
}

func spinWave(b *testing.B, k *sim.Kernel) {
	spinWaveSetup(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

func record(r testing.BenchmarkResult) benchPerf {
	return benchPerf{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}
