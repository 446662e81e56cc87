package main

import (
	"math"
	"testing"
	"time"
)

// driftingRuns returns timed runs of a and b on a host that slows by
// 5% at every run: b's work costs over times a's.
func driftingRuns(over float64) (a, b func() time.Duration) {
	speed := 1.0
	run := func(work float64) func() time.Duration {
		return func() time.Duration {
			d := time.Duration(work * speed * float64(time.Millisecond))
			speed *= 1.05
			return d
		}
	}
	return run(60), run(60 * over)
}

// Alternating which side runs first cancels the host's drift, which a
// back-to-back pair reads as a 5% overhead, and keeps a real one.
func TestAlternateCancelsDrift(t *testing.T) {
	for _, over := range []float64{1, 1.3} {
		a, b := driftingRuns(over)
		ta := a()
		if pair := float64(b()) / float64(ta); math.Abs(pair-over*1.05) > 0.001 {
			t.Fatalf("back-to-back ratio %.3f, want %.3f", pair, over*1.05)
		}
		a, b = driftingRuns(over)
		if got := alternate(spinRounds, a, b); math.Abs(got-over) > 0.01*over {
			t.Errorf("alternate ratio %.3f for a true %.2f, want within 1%%", got, over)
		}
	}
}
