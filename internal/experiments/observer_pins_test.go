package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateObservers = flag.Bool("update-observers", false,
	"rewrite testdata/observer_pins.txt from the current simulator")

// observerPinsFile pins what every observer renders, per cell: the
// SHA-256 of the Chrome trace JSON, of a Ring's Dump plus its Summarize
// line, of the Prometheus exposition of a fresh SimMetrics after the
// run, and of json.Marshal(Result) with cycle stacks on. All four come
// from one run with all four consumers attached.
const observerPinsFile = "testdata/observer_pins.txt"

// observerRingSize is the retained tail the Ring hash covers.
const observerRingSize = 512

type observerCell struct {
	bench     string
	style     workload.SyncStyle
	setup     Setup
	cbEntries int
}

func (c observerCell) key() string {
	k := fmt.Sprintf("%s/%s/%s", c.bench, c.style, c.setup.Name)
	if c.cbEntries != 0 {
		k += fmt.Sprintf("/cb=%d", c.cbEntries)
	}
	return k
}

// observerCells lists dedup and radiosity (the latter skipped under
// -short) in both styles under the seven standard setups, Quiesce and
// QueueLock at 16 cores, plus a CB-One cell whose 1-entry callback
// directories evict, so stale wakes occur.
func observerCells(short bool) []observerCell {
	setups := append(StandardSetups(),
		Setup{Name: "Quiesce", Protocol: machine.ProtocolQuiesce},
		Setup{Name: "QueueLock", Protocol: machine.ProtocolQueueLock, BackoffLimit: 10})
	benches := []string{"dedup", "radiosity"}
	if short {
		benches = benches[:1]
	}
	var cells []observerCell
	for _, b := range benches {
		for _, style := range []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive} {
			for _, s := range setups {
				cells = append(cells, observerCell{bench: b, style: style, setup: s})
			}
		}
	}
	cbOne, _ := SetupByName("CB-One")
	return append(cells, observerCell{bench: "dedup", style: workload.StyleNaive, setup: cbOne, cbEntries: 1})
}

// kindCounter counts the trace kinds a run emits.
type kindCounter map[trace.Kind]int

func (k kindCounter) Kinds() trace.Mask  { return trace.TraceKinds }
func (k kindCounter) Emit(e trace.Event) { k[e.Kind]++ }

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// observerHashes runs c once with a ChromeWriter, a Ring, a metrics
// collector and cycle accounting attached and returns the four hashes
// in file order.
func observerHashes(t *testing.T, c observerCell, kinds kindCounter) []string {
	t.Helper()
	p, err := workload.ByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	cw := trace.NewChromeWriter(&chrome)
	ring := trace.NewRing(observerRingSize)
	reg := obs.NewRegistry()
	r, err := RunBenchmark(p, c.setup, c.style, Options{
		Cores: 16, CBEntries: c.cbEntries, Parallelism: 1,
		Trace:       trace.Multi{cw, ring, kinds},
		Metrics:     obs.NewSimMetrics(reg),
		CycleStacks: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var ringText bytes.Buffer
	ring.Dump(&ringText)
	fmt.Fprintln(&ringText, trace.Summarize(ring.Events()))
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return []string{hashHex(chrome.Bytes()), hashHex(ringText.Bytes()), hashHex(prom.Bytes()), hashHex(res)}
}

func readObserverPins(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(observerPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("%s: malformed line %q", observerPinsFile, line)
		}
		want[fields[0]] = fields[1:]
	}
	return want
}

// Every consumer renders each cell exactly as pinned, and the cells
// together emit every trace kind.
func TestObserverOutputsMatchPins(t *testing.T) {
	cells := observerCells(testing.Short() && !*updateObservers)
	kinds := kindCounter{}
	var want map[string][]string
	var b strings.Builder
	if *updateObservers {
		b.WriteString("# Per cell: SHA-256 of the Chrome trace JSON, of Ring.Dump plus the Summarize\n")
		b.WriteString("# line, of the Prometheus exposition of a fresh SimMetrics, and of\n")
		b.WriteString("# json.Marshal(Result) with CycleStacks, all from one run with every consumer\n")
		b.WriteString("# attached. Regenerate only for an intended behaviour change:\n")
		b.WriteString("# go test ./internal/experiments -run TestObserverOutputsMatchPins -update-observers\n")
	} else {
		want = readObserverPins(t)
	}
	names := []string{"chrome", "ring", "metrics", "result"}
	for _, c := range cells {
		got := observerHashes(t, c, kinds)
		if *updateObservers {
			fmt.Fprintf(&b, "%s %s\n", c.key(), strings.Join(got, " "))
			continue
		}
		w, ok := want[c.key()]
		if !ok {
			t.Fatalf("%s: no pinned hashes in %s", c.key(), observerPinsFile)
		}
		for i := range got {
			if got[i] != w[i] {
				t.Errorf("%s: %s hash %s, pinned %s", c.key(), names[i], got[i], w[i])
			}
		}
	}
	if *updateObservers {
		if err := os.WriteFile(observerPinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		if trace.TraceKinds.Has(k) && kinds[k] == 0 {
			t.Errorf("no cell emitted %s", k)
		}
	}
}
