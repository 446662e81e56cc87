// Command bench is the simulator's end-to-end benchmark. It drives the
// simulator only through public entry points — experiments.Sweep and
// RunBenchmark, the real cbsimd daemon over loopback HTTP, and the
// workload, machine and isa APIs — and measures host time on three named
// workloads (see README.md for why each exists):
//
//	bench -workload repro-64|callback-64|service-mix [-seed N] [-seconds S] [-trace 0|1]
//	bench -workload W -update-golden
//	bench -compare 'a/*.json' 'b/*.json'
//
// bench/run.sh builds the benchmark and the daemon and then runs this
// command from the repository root. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics:
// with -trace 0 the metrics are BENCHMARK.json's end_to_end list, with
// -trace 1 its per_layer list. A full record of the run (host, seed,
// passes, informational notes) is written under -results.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is the earliest timestamp the benchmark can take; the
// first set-up repetition is measured from it.
var processStart = time.Now()

// Paths relative to the repository root, where the benchmark runs.
// bench/run.sh builds the cbsimd binary.
var (
	specPath   = "BENCHMARK.json"
	goldenDir  = filepath.Join("bench", "golden")
	resultsDir = filepath.Join(".bench_build", "results")
	cbsimdBin  = filepath.Join(".bench_build", "cbsimd")
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// benchWorkload is one named traffic mix: an untraced run that measures
// the end_to_end metrics and a traced run that measures the per_layer ones.
type benchWorkload struct {
	name   string
	run    func(r *runner) error
	traced func(r *runner) error
}

var workloads = []benchWorkload{
	{"repro-64", func(r *runner) error { return runSweep(r, reproCells) },
		func(r *runner) error { return tracedSweep(r, reproCells) }},
	{"callback-64", func(r *runner) error { return runSweep(r, callbackCells) },
		func(r *runner) error { return tracedSweep(r, callbackCells) }},
	{"service-mix", runService, tracedService},
}

func workloadByName(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "workload to run: repro-64, callback-64 or service-mix")
	seed := fs.Uint64("seed", 0, "workload seed; 0 is the paper's stock inputs, checked against golden outputs")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds: whole passes run while the next one fits")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans and a CPU profile")
	update := fs.Bool("update-golden", false, "rewrite the workload's golden file from a seed-0 pass (benchmark changes only)")
	compare := fs.String("compare", "", "glob of baseline records; the first argument is the glob of candidate records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes a baseline glob and one candidate glob")
			return 2
		}
		if err := compareRecords(stdout, spec, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *update && (*seed != 0 || *trace != 0) {
		fmt.Fprintln(os.Stderr, "bench: -update-golden needs -seed 0 and -trace 0")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	goldenPath := filepath.Join(goldenDir, w.name+".json")
	base := fmt.Sprintf("%s-s%d-t%d-%d", w.name, *seed, *trace, time.Now().UnixNano())
	r := &runner{
		seed:        *seed,
		budget:      time.Duration(*seconds) * time.Second,
		tracePrefix: filepath.Join(resultsDir, base),
		update:      *update,
		golden:      map[string]string{},
		got:         map[string]string{},
		m:           map[string]float64{},
	}
	if !*update {
		if r.golden, err = loadGolden(goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rec := record{
		Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitHead: gitHead(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}

	var runErr error
	if *trace == 1 {
		r.tr = newTracer()
		runErr = w.traced(r)
	} else {
		runErr = w.run(r)
	}
	if runErr != nil {
		// A run that could not complete measures nothing: report it on
		// stderr and print no result.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, runErr)
		return 1
	}
	defs := spec.EndToEnd
	if *trace == 1 {
		defs = spec.PerLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !*update {
				r.problem("metric %s was not measured", d.Name)
			}
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		r.problem("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0
	if *update && res.Correct {
		if err := writeGolden(goldenPath, w.name, r.golden); err != nil {
			r.problem("writing golden file: %v", err)
			res.Correct = false
		} else {
			fmt.Fprintf(os.Stderr, "bench: wrote %d output hashes to %s\n", len(r.golden), goldenPath)
		}
	}
	rec.Result, rec.Passes, rec.PassDetail = res, r.passes, r.passDetail
	rec.Notes, rec.Problems, rec.Detail = r.notes, r.problems, r.m
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(resultsDir, base+".json"), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing record:", err)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
	}
	printMetrics(os.Stderr, defs, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runner carries one run's inputs and accumulates its measurements.
type runner struct {
	seed   uint64
	budget time.Duration
	// tracePrefix names the traced run's span and profile files.
	tracePrefix string
	tr          *tracer

	// golden maps output names to their expected SHA-256 (with update,
	// it collects the new golden file); got holds every hash of this run,
	// for the checks that one input always gives the same bytes.
	golden map[string]string
	got    map[string]string
	update bool

	m                 map[string]float64
	attempted, failed int
	passes            int
	passDetail        []map[string]float64
	problems, notes   []string
}

// maxProblems bounds how many failure descriptions a record keeps; the
// failed count is always exact.
const maxProblems = 20

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, one
// failure.
func (r *runner) op(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%s: %v", name, err)
	}
}

// checkOutput hashes one operation's output bytes. The same name must
// hash identically everywhere in a run (across passes, traced versus
// untraced, cached versus fresh), and when withGolden is set the hash
// must match the committed golden file.
func (r *runner) checkOutput(name string, data []byte, withGolden bool) error {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	if prev, ok := r.got[name]; ok && prev != h {
		return fmt.Errorf("output differs between two runs of the same input")
	}
	r.got[name] = h
	if !withGolden {
		return nil
	}
	if r.update {
		r.golden[name] = h
		return nil
	}
	want, ok := r.golden[name]
	if !ok {
		return fmt.Errorf("no golden hash for this output")
	}
	if want != h {
		return fmt.Errorf("output hash %.12s differs from golden %.12s", h, want)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics each run kind prints, their units, and the comparator's bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, fmt.Errorf("%s lists no end_to_end or per_layer metrics", path)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run, written under -results and read
// back by -compare.
type record struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Trace      int                  `json:"trace"`
	Seconds    int                  `json:"seconds"`
	NProc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	GitHead    string               `json:"git_head"`
	Started    string               `json:"started"`
	Passes     int                  `json:"passes"`
	PassDetail []map[string]float64 `json:"pass_detail,omitempty"`
	Result     result               `json:"result"`
	Notes      []string             `json:"notes,omitempty"`
	Problems   []string             `json:"problems,omitempty"`
	Detail     map[string]float64   `json:"detail"`
}

func printMetrics(w io.Writer, defs []metricDef, res result) {
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// gitHead reads the checked-out commit from .git without running git;
// it reports "unknown" outside a git work tree.
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// vmHWM returns a process's peak resident set size in MB, from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// loadGolden reads a workload's golden output hashes.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden outputs: %w", err)
	}
	var g struct {
		Outputs map[string]string `json:"outputs"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g.Outputs, nil
}

func writeGolden(path, workload string, outputs map[string]string) error {
	data, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Outputs  map[string]string `json:"outputs"`
	}{workload, outputs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
