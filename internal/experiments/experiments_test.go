package experiments

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// testOptions shrinks runs for test speed: 16 cores, 3 benchmarks.
func testOptions() Options {
	return Options{
		Cores:      16,
		Benchmarks: []string{"radiosity", "ocean", "dedup"},
	}
}

func TestStandardSetups(t *testing.T) {
	setups := StandardSetups()
	if len(setups) != 7 {
		t.Fatalf("setups = %d, want 7", len(setups))
	}
	want := []string{"Invalidation", "BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15", "CB-All", "CB-One"}
	for i, s := range setups {
		if s.Name != want[i] {
			t.Fatalf("setup %d = %q, want %q", i, s.Name, want[i])
		}
	}
	if _, err := SetupByName("CB-One"); err != nil {
		t.Fatal(err)
	}
	if _, err := SetupByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBenchmarkProducesStats(t *testing.T) {
	p, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := SetupByName("CB-One")
	res, err := RunBenchmark(p, s, workload.StyleScalable, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time() <= 0 || res.Traffic() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy computed")
	}
	if res.Stats.CBDirAccesses == 0 {
		t.Fatal("callback setup never used the callback directory")
	}
}

func TestSuiteAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep is slow")
	}
	r := NewRuns(testOptions())
	scal, err := RunSuite(StandardSetups(), workload.StyleScalable, r)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunSuite(StandardSetups(), workload.StyleNaive, r)
	if err != nil {
		t.Fatal(err)
	}

	timeT, trafT := SuiteToFig21(scal)
	gmT := timeT.Row("geomean")
	gmN := trafT.Row("geomean")
	if gmT == nil || gmN == nil {
		t.Fatal("missing geomean rows")
	}
	// Invalidation column is the normalization base.
	if gmT[0] != 1 || gmN[0] != 1 {
		t.Fatalf("base column not 1: %v %v", gmT[0], gmN[0])
	}
	// Paper shape: callbacks at least match Invalidation's execution
	// time and beat it on traffic; BackOff-15 is the best-in-traffic
	// back-off but misses on time.
	cbOne := 6
	if gmT[cbOne] > 1.0 {
		t.Errorf("CB-One time %v should not exceed Invalidation", gmT[cbOne])
	}
	if gmN[cbOne] >= 1.0 {
		t.Errorf("CB-One traffic %v should beat Invalidation", gmN[cbOne])
	}
	b0, b15 := 1, 4
	if gmN[b15] >= gmN[b0] {
		t.Errorf("BackOff-15 traffic %v should be below BackOff-0 %v", gmN[b15], gmN[b0])
	}
	if gmT[b15] <= gmT[b0] {
		t.Errorf("BackOff-15 time %v should exceed BackOff-0 %v (latency trade-off)", gmT[b15], gmT[b0])
	}

	// Figure 22: callback protocols must not spin in the L1 the way
	// MESI does.
	e := Fig22(scal)
	inval := e.Row("Invalidation")
	cb := e.Row("CB-One")
	if inval == nil || cb == nil {
		t.Fatal("missing energy rows")
	}
	if cb[0] >= inval[0] {
		t.Errorf("CB-One L1 energy %v should be far below Invalidation's %v (L1 spinning)", cb[0], inval[0])
	}
	if cb[4] >= inval[4] {
		t.Errorf("CB-One total energy %v should beat Invalidation %v", cb[4], inval[4])
	}

	// Figure 20: back-off raises sync LLC accesses; callbacks stay near
	// or below Invalidation for the scalable constructs.
	llc, lat := Fig20(scal, naive)
	if len(llc.Rows()) != 5 || len(lat.Rows()) != 5 {
		t.Fatalf("Fig20 rows = %d/%d, want 5/5", len(llc.Rows()), len(lat.Rows()))
	}
	clh := llc.Row("CLH")
	if clh[1] != 1.0 {
		t.Errorf("BackOff-0 should dominate CLH LLC accesses, row=%v", clh)
	}
	if clh[6] >= clh[1] {
		t.Errorf("CB-One CLH LLC accesses should be far below BackOff-0: %v", clh)
	}
	// CB-All and CB-One behave identically for CLH (one spinner per
	// variable, Section 3.4.3).
	if clh[5] != clh[6] {
		t.Errorf("CB-All (%v) and CB-One (%v) should match for CLH", clh[5], clh[6])
	}
	// T&T&S differentiates them: CB-One services one waiter per
	// release.
	ttas := llc.Row("T&T&S")
	if ttas[6] >= ttas[5] {
		t.Errorf("CB-One T&T&S LLC accesses (%v) should be below CB-All (%v)", ttas[6], ttas[5])
	}

	// Figure 1 is the back-off subset of the scalable rows.
	fllc, flat := Fig1(scal)
	if len(fllc.Columns) != 5 || len(flat.Columns) != 5 {
		t.Fatal("Fig1 should have 5 columns")
	}

	// Headline ratios are finite and in the plausible band.
	h := ComputeHeadline(scal)
	if h.TimeVsInvalidation <= 0 || h.TimeVsInvalidation > 1.2 {
		t.Errorf("headline time ratio %v out of band", h.TimeVsInvalidation)
	}
	if h.TrafficVsInvalidation >= 1 {
		t.Errorf("headline traffic ratio %v should beat Invalidation", h.TrafficVsInvalidation)
	}
	if h.String() == "" {
		t.Error("empty headline")
	}
}

func TestSensitivitySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := SensitivityEntries(NewRuns(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	gm := tab.Row("geomean")
	for i, v := range gm {
		if v < 0.9 || v > 1.1 {
			t.Errorf("entries sensitivity column %d = %v; paper reports no noticeable change", i, v)
		}
	}
}

func TestMicrosRun(t *testing.T) {
	o := Options{Cores: 16}
	for _, mc := range Micros() {
		for _, name := range []string{"Invalidation", "BackOff-10", "CB-One"} {
			s, _ := SetupByName(name)
			r, err := RunMicro(mc, s, o)
			if err != nil {
				t.Fatalf("%s under %s: %v", mc.Name, name, err)
			}
			if r.Latency <= 0 {
				t.Fatalf("%s under %s: no latency measured", mc.Name, name)
			}
		}
	}
}

func TestSyncKindsCovered(t *testing.T) {
	// Every micro measures a real kind.
	for _, mc := range Micros() {
		if mc.LatencyKind == isa.SyncNone {
			t.Errorf("micro %s has no latency kind", mc.Name)
		}
		if len(mc.Kinds) == 0 {
			t.Errorf("micro %s has no LLC kinds", mc.Name)
		}
	}
}
