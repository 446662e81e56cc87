package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSetupByNameErrors pins the error paths: every standard setup
// resolves round-trip, and unknown names fail with an error naming the
// offender.
func TestSetupByNameErrors(t *testing.T) {
	for _, want := range StandardSetups() {
		got, err := SetupByName(want.Name)
		if err != nil {
			t.Fatalf("SetupByName(%q): %v", want.Name, err)
		}
		if got != want {
			t.Fatalf("SetupByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	for _, bad := range []string{"", "cb-one", "CB-ONE", "BackOff", "BackOff-7", "Invalidation "} {
		s, err := SetupByName(bad)
		if err == nil {
			t.Fatalf("SetupByName(%q) = %+v, want error", bad, s)
		}
		if want := fmt.Sprintf("%q", bad); !strings.Contains(err.Error(), want) {
			t.Errorf("SetupByName(%q) error %q does not name the input", bad, err)
		}
	}
}

// TestRunBenchmarkCanceledContext pins the satellite contract: a run
// under an already-canceled context returns ctx.Err() as the run error.
func TestRunBenchmarkCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := SetupByName("CB-One")
	_, err = RunBenchmark(p, s, workload.StyleScalable, Options{Cores: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunBenchmarkCancelMidRun cancels while the simulation is running
// and expects a prompt, clean abort (polled between kernel events).
func TestRunBenchmarkCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := SetupByName("Invalidation")
	started := make(chan struct{})
	// Full 64-core scale: seconds of simulation, so the cancel lands
	// mid-run with a huge margin (the test finishes in milliseconds when
	// cancellation works).
	o := Options{Cores: 64, Context: ctx, Progress: func(e RunEvent) {
		if !e.Done {
			close(started)
		}
	}}
	errCh := make(chan error, 1)
	go func() {
		_, err := RunBenchmark(p, s, workload.StyleScalable, o)
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("simulation did not stop after cancel")
	}
}

// TestSweepCancellation pins Sweep's contract under a canceled context:
// remaining cells are skipped and ctx.Err() is returned.
func TestSweepCancellation(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Sweep(Options{Parallelism: par, Context: ctx}, 100, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		if n := ran.Load(); n >= 100 {
			t.Fatalf("par=%d: all %d cells ran despite cancellation", par, n)
		}
	}
}

// TestSweepLowestError pins the deterministic error contract Sweep
// inherits from the parallel runner.
func TestSweepLowestError(t *testing.T) {
	boom := func(i int) error {
		if i == 7 || i == 3 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	}
	for _, par := range []int{1, 8} {
		err := Sweep(Options{Parallelism: par}, 16, boom)
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("par=%d: err = %v, want lowest-index failure", par, err)
		}
	}
}

// TestProgressEvents pins the progress hook: one start and one done
// event per cell, with simulated cycles and wall time on completion.
func TestProgressEvents(t *testing.T) {
	var events []RunEvent
	o := Options{
		Cores:      16,
		Benchmarks: []string{"fft", "lu"},
		Progress:   func(e RunEvent) { events = append(events, e) },
	}
	inval, _ := SetupByName("Invalidation")
	cbOne, _ := SetupByName("CB-One")
	setups := []Setup{inval, cbOne}
	o.Parallelism = 1 // keep the event order deterministic for the test
	if _, err := RunSuite(setups, workload.StyleScalable, NewRuns(o)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 { // 2 benchmarks x 2 setups x (start + done)
		t.Fatalf("got %d progress events, want 8", len(events))
	}
	for i := 0; i < len(events); i += 2 {
		start, done := events[i], events[i+1]
		if start.Done || !done.Done {
			t.Fatalf("event pair %d out of order: %+v / %+v", i/2, start, done)
		}
		if start.Benchmark != done.Benchmark || start.Setup != done.Setup {
			t.Fatalf("event pair %d mismatched: %+v / %+v", i/2, start, done)
		}
		if done.Cycles == 0 || done.Wall <= 0 || done.Err != nil {
			t.Fatalf("done event %d incomplete: %+v", i/2, done)
		}
	}
}
