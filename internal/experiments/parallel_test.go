package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// Parallel sweeps must be bit-reproducible: each cell simulates on its own
// kernel with seeded workload generation, so fan-out order cannot leak into
// the results. This is the regression test guarding that guarantee. Each
// sweep has its own cell set, or the second would only read the first's.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	setups := []Setup{StandardSetups()[0], StandardSetups()[1], StandardSetups()[6]}
	o := Options{Cores: 4, Benchmarks: []string{"radiosity", "fft"}}

	o.Parallelism = 1
	serial, err := RunSuite(setups, workload.StyleScalable, NewRuns(o))
	if err != nil {
		t.Fatalf("serial RunSuite: %v", err)
	}
	o.Parallelism = 8
	parallel, err := RunSuite(setups, workload.StyleScalable, NewRuns(o))
	if err != nil {
		t.Fatalf("parallel RunSuite: %v", err)
	}

	if !reflect.DeepEqual(serial.Names, parallel.Names) {
		t.Fatalf("benchmark order differs: %v vs %v", serial.Names, parallel.Names)
	}
	for _, name := range serial.Names {
		for _, s := range setups {
			sr, pr := serial.Results[name][s.Name], parallel.Results[name][s.Name]
			if !reflect.DeepEqual(sr, pr) {
				t.Errorf("%s/%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
					name, s.Name, sr.Stats, pr.Stats)
			}
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		o := Options{Parallelism: par}.fill()
		const n = 37
		var hits [n]atomic.Int32
		if err := o.forEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times, want 1", par, i, got)
			}
		}
	}
}

// forEach must report a deterministic error no matter which worker hits a
// failure first: the one with the lowest index.
func TestForEachLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	o := Options{Parallelism: 8}.fill()
	err := o.forEach(64, func(i int) error {
		switch i {
		case 5:
			return errLow
		case 40:
			return errHigh
		default:
			return nil
		}
	})
	if err != errLow {
		t.Fatalf("forEach err = %v, want the lowest-index error %v", err, errLow)
	}
}

// A cell set simulates each distinct cell once: a repeated sweep starts
// no cells, Figure 23 after the scalable suite starts only its T&T&S
// half, and a cell with 0 entries is the one with Options.CBEntries.
func TestRunsSimulateEachCellOnce(t *testing.T) {
	starts := 0
	o := Options{Cores: 4, Benchmarks: []string{"radiosity", "fft"}, Progress: func(e RunEvent) {
		if !e.Done {
			starts++
		}
	}}
	r := NewRuns(o)
	step := func(what string, want int, run func() error) {
		t.Helper()
		before := starts
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := starts - before; got != want {
			t.Errorf("%s started %d cells, want %d", what, got, want)
		}
	}
	suite := func() error {
		_, err := RunSuite(StandardSetups(), workload.StyleScalable, r)
		return err
	}
	step("scalable suite", 2*7, suite)
	step("second scalable suite", 0, suite)
	step("Fig23", 2*7, func() error { _, err := Fig23(r); return err })
	cbOne, _ := SetupByName("CB-One")
	c := styleCells([]string{"fft"}, []Setup{cbOne}, workload.StyleNaive)[0]
	c4 := c
	c4.Entries = 4
	step("one cell twice", 1, func() error { _, err := NewRuns(o).Results([]Cell{c, c4, c}); return err })
}
