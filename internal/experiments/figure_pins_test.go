package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateFigures = flag.Bool("update-figures", false,
	"rewrite testdata/figure_pins.txt from the current simulator")

// figurePinsFile pins every figure cmd/experiments -fig all prints, at
// 16 cores over testOptions' benchmarks: the SHA-256 of each rendered
// table or summary.
const figurePinsFile = "testdata/figure_pins.txt"

type renderedFigure struct {
	name, text string
}

// renderFigures regenerates every figure the way cmd/experiments -fig
// all does, in its print order, through one cell set.
func renderFigures(t *testing.T) []renderedFigure {
	t.Helper()
	o := testOptions()
	r := NewRuns(o)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	scal, err := RunSuite(StandardSetups(), workload.StyleScalable, r)
	check(err)
	naive, err := RunSuite(StandardSetups(), workload.StyleNaive, r)
	check(err)
	var figs []renderedFigure
	add := func(name string, v fmt.Stringer) {
		figs = append(figs, renderedFigure{name, v.String()})
	}
	fig1LLC, fig1Lat := Fig1(scal)
	add("fig1_llc", fig1LLC)
	add("fig1_latency", fig1Lat)
	fig20LLC, fig20Lat := Fig20(scal, naive)
	add("fig20_llc", fig20LLC)
	add("fig20_latency", fig20Lat)
	fig21Time, fig21Traffic := SuiteToFig21(scal)
	add("fig21_time", fig21Time)
	add("fig21_traffic", fig21Traffic)
	add("fig22", Fig22(scal))
	fig23, err := Fig23(r)
	check(err)
	add("fig23", fig23)
	sens, err := SensitivityEntries(r)
	check(err)
	add("sensitivity", sens)
	add("naive", ComputeNaiveSummary(naive))
	locksLat, locksLLC, err := ExtensionLocks(o)
	check(err)
	add("locks_latency", locksLat)
	add("locks_llc", locksLLC)
	idle, err := ExtensionIdleEnergy(r)
	check(err)
	add("idle", idle)
	quiesce, err := ExtensionQuiesce(r)
	check(err)
	add("quiesce", quiesce)
	cyc, err := RunCycleStacks(o.Benchmarks[0], StandardSetups(), workload.StyleScalable, o)
	check(err)
	add("cycles_"+o.Benchmarks[0], cyc.Table)
	add("headline", ComputeHeadline(scal))
	return figs
}

// Every figure renders exactly as pinned.
func TestFiguresMatchPins(t *testing.T) {
	figs := renderFigures(t)
	if *updateFigures {
		var b strings.Builder
		b.WriteString("# Per figure: SHA-256 of the rendered table or summary, as cmd/experiments\n")
		b.WriteString("# -fig all prints it, at 16 cores over radiosity, ocean and dedup.\n")
		b.WriteString("# Regenerate only for an intended behaviour change:\n")
		b.WriteString("# go test ./internal/experiments -run TestFiguresMatchPins -update-figures\n")
		for _, f := range figs {
			fmt.Fprintf(&b, "%s %s\n", f.name, hashHex([]byte(f.text)))
		}
		if err := os.WriteFile(figurePinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(figurePinsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", figurePinsFile, line)
		}
		want[fields[0]] = fields[1]
	}
	if len(want) != len(figs) {
		t.Errorf("%s pins %d figures, rendered %d", figurePinsFile, len(want), len(figs))
	}
	for _, f := range figs {
		w, ok := want[f.name]
		if !ok {
			t.Errorf("%s: no pinned hash in %s", f.name, figurePinsFile)
			continue
		}
		if got := hashHex([]byte(f.text)); got != w {
			t.Errorf("%s: hash %s, pinned %s; rendered:\n%s", f.name, got, w, f.text)
		}
	}
}
