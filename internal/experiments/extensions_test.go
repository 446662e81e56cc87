package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestExtensionQuiesceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Cores: 16, Benchmarks: []string{"radiosity", "dedup"}}
	tab, err := ExtensionQuiesce(NewRuns(o))
	if err != nil {
		t.Fatal(err)
	}
	inval := tab.Row("Invalidation")
	q := tab.Row("Quiesce")
	cb := tab.Row("CB-One")
	if inval == nil || q == nil || cb == nil {
		t.Fatal("missing rows")
	}
	// Quiesce eliminates L1 spinning but keeps invalidation traffic;
	// callbacks cut traffic too.
	if q[2] >= 0.5 {
		t.Errorf("quiesce L1 accesses %v should collapse vs Invalidation", q[2])
	}
	if q[1] < 0.8 {
		t.Errorf("quiesce traffic %v should stay near Invalidation's", q[1])
	}
	if cb[1] >= q[1] {
		t.Errorf("callback traffic %v should beat quiesce %v", cb[1], q[1])
	}
}

func TestExtensionLocksIncludesQueueLock(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Cores: 16}
	lat, llc, err := ExtensionLocks(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Columns) != 8 || lat.Columns[7] != "QueueLock" {
		t.Fatalf("columns = %v, want QueueLock appended", lat.Columns)
	}
	for _, name := range []string{"T&S", "T&T&S", "Ticket", "CLH", "MCS"} {
		if lat.Row(name) == nil || llc.Row(name) == nil {
			t.Fatalf("missing lock row %q", name)
		}
	}
	// The queue only helps test-style atomics: for the T&S lock it must
	// beat BackOff-10 on latency; for CLH (a load spin) it cannot.
	tas := lat.Row("T&S")
	if tas[7] >= tas[3] {
		t.Errorf("queue lock T&S latency %v should beat BackOff-10 %v", tas[7], tas[3])
	}
}

func TestExtensionIdleEnergyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Cores: 16, Benchmarks: []string{"radiosity"}}
	tab, err := ExtensionIdleEnergy(NewRuns(o))
	if err != nil {
		t.Fatal(err)
	}
	inval := tab.Row("Invalidation")
	cb := tab.Row("CB-One")
	// Invalidation busy-spins: almost no gate-able idle time; callbacks
	// block and save.
	if inval[0] >= cb[0] {
		t.Errorf("Invalidation idle fraction %v should be below CB-One %v", inval[0], cb[0])
	}
	if cb[1] >= 1 {
		t.Errorf("CB-One core+mem energy %v should beat Invalidation", cb[1])
	}
}

func TestNaiveSummaryString(t *testing.T) {
	n := NaiveSummary{TimeVsInvalidation: 0.4, TrafficVsInvalidation: 0.2,
		TimeVsBackoff10: 0.8, TrafficVsBackoff10: 0.3}
	s := n.String()
	for _, want := range []string{"0.400", "0.200", "0.800", "0.300", "paper"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
}

func TestTraceOptionCollectsEvents(t *testing.T) {
	p, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(64)
	o := Options{Cores: 16, Trace: ring}
	s, _ := SetupByName("CB-One")
	if _, err := RunBenchmark(p, s, workload.StyleScalable, o); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("trace ring empty")
	}
	summary := trace.Summarize(ring.Events())
	if !strings.Contains(summary, "send") && !strings.Contains(summary, "deliver") {
		t.Fatalf("no network events traced: %s", summary)
	}
}

func TestQueueLockSetupFlavor(t *testing.T) {
	s := Setup{Name: "QueueLock", Protocol: machine.ProtocolQueueLock}
	if s.Flavor().String() != "backoff" {
		t.Fatalf("queue-lock flavour = %v, want backoff encodings", s.Flavor())
	}
	q := Setup{Name: "Quiesce", Protocol: machine.ProtocolQuiesce}
	if q.Flavor().String() != "cb-all" {
		t.Fatalf("quiesce flavour = %v, want cb-all encodings", q.Flavor())
	}
}
