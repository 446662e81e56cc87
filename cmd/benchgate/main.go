// Command benchgate is the CI perf gate: it diffs the PR's BENCH_pr.json
// (written by cmd/benchsnap) against the committed BENCH_baseline.json and
// fails on regressions that survive machine-speed differences:
//
//   - allocs/op must match the baseline EXACTLY for every benchmark both
//     files share. Allocation counts are deterministic — any change is a
//     real code change, not noise — and the kernel hot paths are required
//     to stay at zero.
//   - ns/op may drift up to -tolerance x the baseline (default 4x). CI
//     runners and dev laptops differ by small integer factors; an
//     order-of-magnitude cliff is a lost fast path, not a slow machine.
//   - machine-independent ratios measured WITHIN one run of one machine:
//     the calendar-wheel kernel must hold at least a 2x lead over the
//     heap-only reference on the spin-wave distribution, and checkpoint
//     recording must stay within 2.5x of the same cell run plain
//     (measured ~1.3x at the default digest-mark cadence once the memory
//     path stopped allocating; the headroom absorbs runner load, not a
//     lost fast path).
//
// Usage:
//
//	benchgate [-baseline BENCH_baseline.json] [-pr BENCH_pr.json] [-tolerance 4]
//
// CI runs it via `make bench-gate` after `make bench-snapshot`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchPerf mirrors cmd/benchsnap's per-benchmark record.
type benchPerf struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type snapshot struct {
	Benchmarks map[string]benchPerf `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline snapshot")
	pr := flag.String("pr", "BENCH_pr.json", "this run's snapshot")
	tolerance := flag.Float64("tolerance", 4, "max ns/op growth factor vs baseline")
	flag.Parse()

	failures, err := gate(*baseline, *pr, *tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchgate: ok")
}

func gate(baselinePath, prPath string, tolerance float64) ([]string, error) {
	base, err := load(baselinePath)
	if err != nil {
		return nil, err
	}
	cur, err := load(prPath)
	if err != nil {
		return nil, err
	}

	var failures []string

	// Every baseline benchmark must still exist: silently dropping a
	// gated benchmark would un-gate it.
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from PR snapshot", name))
			continue
		}
		if c.AllocsPerOp != b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d, baseline %d (must match exactly)",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*tolerance {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op exceeds %.0fx baseline %.1f ns/op",
				name, c.NsPerOp, tolerance, b.NsPerOp))
		}
	}

	// Same-machine ratios: immune to runner speed.
	wheel, heap := cur.Benchmarks["spin_wave_wheel"], cur.Benchmarks["spin_wave_heap"]
	if wheel.NsPerOp <= 0 || heap.NsPerOp <= 0 {
		failures = append(failures, "spin_wave_wheel/spin_wave_heap missing from PR snapshot")
	} else if wheel.NsPerOp > heap.NsPerOp/2 {
		failures = append(failures, fmt.Sprintf(
			"spin-wave: wheel %.1f ns/op vs heap %.1f ns/op — lead %.2fx, want >= 2x",
			wheel.NsPerOp, heap.NsPerOp, heap.NsPerOp/wheel.NsPerOp))
	}
	off, on := cur.Benchmarks["replay_record_off"], cur.Benchmarks["replay_record_on"]
	if off.NsPerOp <= 0 || on.NsPerOp <= 0 {
		failures = append(failures, "replay_record_on/replay_record_off missing from PR snapshot")
	} else if on.NsPerOp > off.NsPerOp*2.5 {
		failures = append(failures, fmt.Sprintf(
			"checkpoint recording: %.0f ms/run vs %.0f ms plain — overhead %.2fx, want <= 2.5x",
			on.NsPerOp/1e6, off.NsPerOp/1e6, on.NsPerOp/off.NsPerOp))
	}

	return failures, nil
}

func load(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return snapshot{}, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return s, nil
}
