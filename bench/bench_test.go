package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

func newTestRunner(t *testing.T, workload string) *runner {
	t.Helper()
	golden, err := loadGolden(filepath.Join("golden", workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return &runner{golden: golden, got: map[string]string{}, m: map[string]float64{}, tr: newTracer(),
		tracePrefix: filepath.Join(t.TempDir(), "run")}
}

func (r *runner) mustPass(t *testing.T) {
	t.Helper()
	if r.failed != 0 || len(r.problems) != 0 {
		t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.problems)
	}
}

// One stock 4-core cell per sweep workload matches its golden hash, both
// through RunBenchmark and through the traced step-by-step pipeline.
func TestSweepCellsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		workload string
		cells    func(uint64) []cell
	}{{"repro-64", reproCells}, {"callback-64", callbackCells}} {
		r := newTestRunner(t, tc.workload)
		w := warmupCells(tc.cells(0))[0]
		res, err := experiments.RunBenchmark(w.profile, w.setup, w.style, w.options())
		r.op(w.name(), r.checkCell(w.name(), res, err, true))
		if err := r.tracedPipeline([]cell{w}, true); err != nil {
			t.Fatal(err)
		}
		r.mustPass(t)
		if r.m["sim.events"] <= 0 || r.m["cpu.instructions"] <= 0 {
			t.Errorf("%s: traced pipeline measured nothing: %v", tc.workload, r.m)
		}
	}
}

// A golden mismatch is a failed op.
func TestGoldenMismatchFails(t *testing.T) {
	r := newTestRunner(t, "repro-64")
	w := warmupCells(reproCells(0))[0]
	r.golden[w.name()] = strings.Repeat("0", 64)
	res, err := experiments.RunBenchmark(w.profile, w.setup, w.style, w.options())
	r.op(w.name(), r.checkCell(w.name(), res, err, true))
	if r.failed != 1 {
		t.Fatalf("golden mismatch not counted as a failure: failed=%d", r.failed)
	}
}

// The service client against an in-process server: one 16-core pool
// cell, sent three times by the two closed-loop clients, matches the
// service-mix golden; the repeats are byte-identical (cache hits, or a
// duplicate simulation when the first two race), and the served stats
// match an in-process traced run.
func TestServiceCell(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Drain(context.Background())

	r := newTestRunner(t, "service-mix")
	reqs, names := servicePool()
	pool := cellsOfPool()
	k := -1
	for i, c := range pool {
		if c.profile.Name == "fft" && c.setup.Name == "CB-One" {
			k = i
			break
		}
	}
	p := runPass(srv.URL, reqs, []int{k, k, k})
	r.judge(p, names, true)
	if err := r.tracedPipeline(pool[k:k+1], false); err != nil {
		t.Fatal(err)
	}
	r.mustPass(t)
	pm := summarize(p)
	if pm.freshN+len(pm.cached) != 3 || len(pm.cached) == 0 || pm.uniqueFresh != 1 {
		t.Fatalf("got %d fresh (%d unique) and %d cached jobs", pm.freshN, pm.uniqueFresh, len(pm.cached))
	}
	r.serviceLayers(p, names)
	if got, want := r.m["service.cache_hit_ratio"], float64(len(pm.cached))/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("cache_hit_ratio = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.3, 1.1, 2.2, 9.9, 4.4, 7.7}, 1.925, 3.85, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// The comparator on fixed records: one metric per verdict.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, m map[string]float64) {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for k, v := range m {
			res.Metrics[k] = metricValue{Value: v}
		}
		data, _ := json.Marshal(record{Workload: "w", Result: res})
		if err := os.WriteFile(filepath.Join(dir, side+string(rune('0'+i))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		d := float64(i) * 0.001 // a 0.4% spread on each side
		write("a", i, map[string]float64{"same": 10 + d, "worse": 10 + d, "better": 10 + d, "noisy": 10 * float64(i+1)})
		write("b", i, map[string]float64{"same": 10.2 + d, "worse": 12 + d, "better": 8 + d, "noisy": 10 * float64(i+1)})
	}
	spec := benchSpec{Workloads: []struct {
		Name string `json:"name"`
	}{{"w"}}}
	for _, n := range []string{"same", "worse", "better", "noisy"} {
		spec.EndToEnd = append(spec.EndToEnd, metricDef{Name: n, Better: "lower", Bound: 0.1})
	}
	var out bytes.Buffer
	if err := compareRecords(&out, spec, filepath.Join(dir, "a*.json"), filepath.Join(dir, "b*.json")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"same  same", "worse  worse", "better  better", "noisy  unresolved"} {
		metric, verdict, _ := strings.Cut(want, "  ")
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric && f[len(f)-1] == verdict {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q verdict for %s in:\n%s", verdict, metric, out.String())
		}
	}
}

// A real CPU profile of simulator work folds into buckets summing to 1,
// with the simulator's own packages present.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w := cell{mustProfile("fft"), mustSetup("Invalidation"), styles[0], 4, 4}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := experiments.RunBenchmark(w.profile, w.setup, w.style, w.options()); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	fracs, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum, simulator float64
	for _, b := range hostBuckets {
		sum += fracs[b]
		if b != "other" && !strings.HasPrefix(b, "runtime.") {
			simulator += fracs[b]
		}
	}
	if math.Abs(sum-1) > 1e-9 || simulator < 0.3 {
		t.Fatalf("fold sums to %v with simulator share %v: %v", sum, simulator, fracs)
	}
}

func TestMicroProgramsDoTheirWork(t *testing.T) {
	r := &runner{got: map[string]string{}, m: map[string]float64{}}
	r.runMicro()
	r.mustPass(t)
	if r.m["micro.cb_wake_events"] <= 0 || r.m["micro.machine_new_64_bytes"] <= 0 {
		t.Fatalf("micro metrics missing: %v", r.m)
	}
}

func TestScaledProfile(t *testing.T) {
	p := mustProfile("radiosity")
	if scaledProfile(p, 0) != p {
		t.Fatal("seed 0 must be the stock profile")
	}
	a, b := scaledProfile(p, 7), scaledProfile(p, 7)
	if a != b || a == p {
		t.Fatalf("seed 7 must give one scaled profile: %+v vs %+v", a, b)
	}
}
