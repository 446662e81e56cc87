package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
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
