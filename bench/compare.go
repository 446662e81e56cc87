package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareRecords prints, for every (workload, end-to-end metric) pair,
// the median and quartiles of the untraced records matching each glob,
// and a verdict under the metric's bound from BENCHMARK.json:
//
//   - unresolved: either side's spread (quartile distance over median)
//     exceeds the bound, unless every candidate run beats every baseline
//     run (better);
//   - worse / better: the candidate median moved in the metric's bad /
//     good direction by more than the bound;
//   - same: otherwise.
func compareRecords(w io.Writer, spec benchSpec, baseGlob, candGlob string) error {
	base, err := readRecords(baseGlob)
	if err != nil {
		return err
	}
	cand, err := readRecords(candGlob)
	if err != nil {
		return err
	}
	var wls []string
	for _, wl := range spec.Workloads {
		wls = append(wls, wl.Name)
	}
	fmt.Fprintf(w, "%-12s %-18s %8s %32s %32s  %s\n", "workload", "metric", "bound", "baseline median [q1, q3] (n)", "candidate median [q1, q3] (n)", "verdict")
	for _, wl := range wls {
		for _, d := range spec.EndToEnd {
			a, b := base[wl][d.Name], cand[wl][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %-18s %7.0f%% %32s %32s  %s\n", wl, d.Name, 100*d.Bound, describe(a), describe(b), verdict(d, a, b))
		}
	}
	return nil
}

// readRecords loads untraced run records matching glob, grouped as
// workload -> metric -> values.
func readRecords(glob string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no records match %q", glob)
	}
	sort.Strings(paths)
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace != 0 || rec.Workload == "" {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, nil
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func verdict(d metricDef, a, b []float64) string {
	lower := d.Better == "lower"
	// worseBy is how far the candidate median moved in the bad
	// direction, as a share of the baseline median.
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	if !lower {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lower && y >= x) || (!lower && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worseBy > d.Bound:
		return "worse"
	case -worseBy > d.Bound:
		return "better"
	}
	return "same"
}
