package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs ever submitted.")
	c.Add(3)
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return 2 })
	r.GaugeFunc("workers", "Worker count.", func() float64 { return 8 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter", "jobs_total 3",
		"# TYPE queue_depth gauge", "queue_depth 2",
		"workers 8",
		"# HELP jobs_total Jobs ever submitted.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs", "by state", L("state", "done")).Add(2)
	r.Counter("jobs", "by state", L("state", "failed")).Inc()
	// Same name+labels returns the same handle.
	if r.Counter("jobs", "", L("state", "done")).Value() != 2 {
		t.Fatal("re-registration did not return the existing counter")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `jobs{state="done"} 2`) || !strings.Contains(out, `jobs{state="failed"} 1`) {
		t.Fatalf("labeled series wrong:\n%s", out)
	}
	if strings.Count(out, "# TYPE jobs counter") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name as counter then gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("9bad-name", "")
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("Sum = %g, want 556.5", h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("buckets %v / %v", bounds, cum)
	}
	// le=1: 0.5 and 1 (bounds are inclusive); le=10: +5; le=100: +50; +Inf: +500.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`, `lat_bucket{le="10"} 3`,
		`lat_bucket{le="100"} 4`, `lat_bucket{le="+Inf"} 5`,
		"lat_sum 556.5", "lat_count 5",
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 700))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	_, cum := h.Buckets()
	if cum[len(cum)-1] != 8000 {
		t.Fatalf("+Inf bucket = %d, want 8000", cum[len(cum)-1])
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help text").Add(7)
	r.GaugeFunc("g", "", func() float64 { return 1.5 }, L("x", "y"), L("q", `va"l`))
	h := r.Histogram("lat_cycles", "", []float64{1, 4})
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	e, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, b.String())
	}
	if v, err := e.Value("a_total"); err != nil || v != 7 {
		t.Fatalf("a_total = %v, %v", v, err)
	}
	if e.Types["a_total"] != TypeCounter || e.Types["lat_cycles"] != TypeHistogram {
		t.Fatalf("types: %v", e.Types)
	}
	gs := e.Samples["g"]
	if len(gs) != 1 || gs[0].Labels["x"] != "y" || gs[0].Labels["q"] != `va"l` || gs[0].Value != 1.5 {
		t.Fatalf("g samples: %+v", gs)
	}
	if !e.Has("lat_cycles_bucket") || !e.Has("lat_cycles_count") {
		t.Fatalf("histogram series missing: %v", e.Samples)
	}
	// Bucket counts must be cumulative (monotone in le).
	var last float64 = -1
	for _, s := range e.Samples["lat_cycles_bucket"] {
		if s.Value < last {
			t.Fatalf("non-monotone buckets: %+v", e.Samples["lat_cycles_bucket"])
		}
		last = s.Value
	}
}

func TestExpLinearBuckets(t *testing.T) {
	eb := ExpBuckets(1, 4, 3)
	if eb[0] != 1 || eb[1] != 4 || eb[2] != 16 {
		t.Fatalf("ExpBuckets: %v", eb)
	}
	lb := LinearBuckets(0, 2, 3)
	if lb[0] != 0 || lb[1] != 2 || lb[2] != 4 {
		t.Fatalf("LinearBuckets: %v", lb)
	}
}

func TestSimMetricsRegistersIdempotently(t *testing.T) {
	r := NewRegistry()
	a := NewSimMetrics(r)
	b := NewSimMetrics(r)
	if a.SpinWait != b.SpinWait || a.CBWakeLatency != b.CBWakeLatency {
		t.Fatal("NewSimMetrics not idempotent on one registry")
	}
	a.ObserveSync(2, 100) // some valid kind
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sim_spin_wait_cycles_bucket", "sim_cb_wake_latency_cycles_bucket",
		"sim_cb_dir_occupancy_entries_bucket", "sim_noc_link_utilization_ratio_bucket",
		"sim_sync_latency_cycles_bucket", "sim_runs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim metrics exposition missing %q", want)
		}
	}
}

// Hostile label values must survive exposition + parse unchanged:
// backslash, double quote, and newline all have escapes in the text
// format, and escaping must not double up (a raw `\n` backslash-n pair
// is distinct from a line feed).
func TestLabelEscapingRoundTrip(t *testing.T) {
	hostile := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`mix\"ed` + "\n" + `\n end`,
		`trailing\`,
	}
	r := NewRegistry()
	for i, v := range hostile {
		r.Counter("hostile_total", "", L("v", v)).Add(uint64(i + 1))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The raw backslash value must render with exactly two backslashes
	// (no %q double-escaping on top of manual escaping).
	if !strings.Contains(out, `v="back\\slash"`) {
		t.Errorf("backslash escaped wrong:\n%s", out)
	}
	if !strings.Contains(out, `v="quo\"te"`) {
		t.Errorf("quote escaped wrong:\n%s", out)
	}
	if !strings.Contains(out, `v="new\nline"`) {
		t.Errorf("newline escaped wrong:\n%s", out)
	}
	e, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, out)
	}
	got := map[string]float64{}
	for _, s := range e.Samples["hostile_total"] {
		got[s.Labels["v"]] = s.Value
	}
	for i, v := range hostile {
		if got[v] != float64(i+1) {
			t.Errorf("label %q round-tripped to value %v, want %d\nexposition:\n%s", v, got[v], i+1, out)
		}
	}
}

// ObserveSync must reject out-of-range kinds instead of wrapping them
// into an arbitrary histogram slot.
func TestObserveSyncOutOfRange(t *testing.T) {
	r := NewRegistry()
	m := NewSimMetrics(r)
	m.ObserveSync(isa.NumSyncKinds, 100)
	m.ObserveSync(isa.NumSyncKinds+3, 100)
	if got := m.ObserveErrors.Value(); got != 2 {
		t.Fatalf("ObserveErrors = %d, want 2", got)
	}
	for k, h := range m.Sync {
		if h != nil && h.Count() != 0 {
			t.Errorf("kind %d histogram got %d observations from out-of-range kinds", k, h.Count())
		}
	}
	m.ObserveSync(isa.SyncAcquire, 50)
	if m.Sync[isa.SyncAcquire].Count() != 1 {
		t.Fatal("in-range observation lost")
	}
	if got := m.ObserveErrors.Value(); got != 2 {
		t.Fatalf("ObserveErrors moved to %d on a valid observation", got)
	}
}

// AddCycles feeds the sim_cycles_total{category,protocol} counter.
func TestAddCycles(t *testing.T) {
	r := NewRegistry()
	m := NewSimMetrics(r)
	m.AddCycles("Invalidation", "spin_wait", 120)
	m.AddCycles("Invalidation", "spin_wait", 30)
	m.AddCycles("Callback", "cb_blocked", 99)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sim_cycles_total{category="spin_wait",protocol="Invalidation"} 150`,
		`sim_cycles_total{category="cb_blocked",protocol="Callback"} 99`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Observe files each sample where a binary search over the bounds would:
// the first bucket whose bound is at least the sample, +Inf for the rest
// (NaN included).
func TestObserveBucketsLikeSearch(t *testing.T) {
	bounds := ExpBuckets(1, 4, 12)
	h := newHistogram(bounds)
	vals := []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, 4, 5, 1 << 22, 1 << 23, math.Inf(1), math.NaN()}
	want := make([]uint64, len(bounds)+1)
	for _, v := range vals {
		h.Observe(v)
		want[sort.SearchFloat64s(h.bounds, v)]++
	}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d holds %d samples, want %d", i, got, want[i])
		}
	}
}

// A +0 sample counts but leaves the sum as adding it would: unchanged,
// or +0 where the sum was -0.
func TestObserveZeroKeepsSum(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 4, 12))
	h.Observe(3)
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 3 {
		t.Fatalf("count %d sum %g, want 2 and 3", h.Count(), h.Sum())
	}
	n := newHistogram(ExpBuckets(1, 4, 12))
	n.Observe(math.Copysign(0, -1))
	n.Observe(0)
	if s := n.Sum(); s != 0 || math.Signbit(s) {
		t.Fatalf("sum %g after -0 and +0, want +0", s)
	}
}
