package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads reported here match that definition.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean is the geometric mean of positive xs. Op latencies span three
// orders of magnitude within a workload (a 64-core Invalidation cell
// against a 4-entry CB-One one; a fresh job against a cache hit), so a
// percentile jumps between clusters as inputs shift while the geometric
// mean moves smoothly.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// passMetrics summarizes one pass over a workload's ops: its wall time,
// the simulated cycles of the cells it simulated per host second, and op
// latencies in ms — all ops, the fresh (simulated) ones, the cache hits.
type passMetrics struct {
	wall, rate          float64
	fresh, cached, all  []float64
	freshN, uniqueFresh int
}

// putPasses records the end-to-end metrics of a run's passes: medians of
// the per-pass wall time and simulation rate, and geometric-mean
// latencies over every pass's ops.
func (r *runner) putPasses(ps []passMetrics) {
	var walls, rates, fresh, all []float64
	for _, pm := range ps {
		walls = append(walls, pm.wall)
		rates = append(rates, pm.rate)
		fresh = append(fresh, pm.fresh...)
		all = append(all, pm.all...)
		r.passDetail = append(r.passDetail, map[string]float64{"wall_s": pm.wall, "sim_mcycles_per_s": pm.rate,
			"fresh_ops": float64(len(pm.fresh)), "ops": float64(len(pm.all))})
	}
	r.passes += len(ps)
	r.m["wall_s"] = median(walls)
	r.m["sim_mcycles_per_s"] = median(rates)
	r.m["fresh_gmean_ms"] = geomean(fresh)
	r.m["op_gmean_ms"] = geomean(all)
}
