package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// A core count the mesh cannot build is an error naming the value, not
// a machine-build panic.
func TestRunRejectsBadCores(t *testing.T) {
	err := run("21", experiments.Options{Cores: 10, Benchmarks: []string{"fft"}})
	if err == nil || !strings.Contains(err.Error(), "10 cores") {
		t.Fatalf("run with 10 cores: err = %v, want a core-count error", err)
	}
}

// -bench "fft, ocean" names fft and ocean.
func TestRunTrimsBenchmarkNames(t *testing.T) {
	o := experiments.Options{Cores: 4, Parallelism: 1, Benchmarks: strings.Split("fft, ocean", ",")}
	if err := run("21", o); err != nil {
		t.Fatal(err)
	}
}

// The host-time table of a small sweep counts every kernel event its
// cells fired, and its setups' shares of the wall time sum to 1.
func TestLedgerCountsEveryEvent(t *testing.T) {
	var host ledger
	o := experiments.Options{Cores: 4, Parallelism: 2, Benchmarks: []string{"fft", "radiosity"}, Progress: host.observe}
	if err := run("21", o); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, name := range o.Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range experiments.StandardSetups() {
			src := experiments.BenchmarkSource(p, s, workload.StyleScalable, o)
			m, err := src.Build()
			if err == nil {
				err = m.Run(src.Limit)
			}
			if err != nil {
				t.Fatalf("%s under %s: %v", name, s.Name, err)
			}
			want += m.K.Executed()
		}
	}
	rows := host.table().Rows()
	all := rows[len(rows)-1]
	if got := uint64(all.Values[3]); got != want {
		t.Fatalf("table counts %d events, the cells fired %d", got, want)
	}
	var share float64
	for _, r := range rows[:len(rows)-1] {
		share += r.Values[2]
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("setup shares sum to %v, want 1", share)
	}
	if len(rows) != len(experiments.StandardSetups())+1 {
		t.Fatalf("table has %d rows, want one per standard setup and a total", len(rows))
	}
}
