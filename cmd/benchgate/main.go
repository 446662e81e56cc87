// Command benchgate is the CI perf gate: it diffs the PR's BENCH_pr.json
// (written by cmd/benchsnap) against the committed BENCH_baseline.json and
// fails on regressions that survive machine-speed differences:
//
//   - allocs/op must match the baseline EXACTLY for every benchmark both
//     files share. Allocation counts are deterministic — any change is a
//     real code change, not noise — and the kernel hot paths are required
//     to stay at zero. Kernel events per op, recorded for whole cells,
//     must match exactly too: a lost event-saving fast path (spin
//     parking) shows there long before it shows in ns/op.
//   - bytes/op of machine_new_64, mesi_spin_cell, verify_set_16 and
//     generate_64 may exceed the baseline by at most 1%. machine.New, a
//     whole cell, the program verifier and the workload generator
//     allocate the same bytes on every run; runtime background
//     allocations move the per-op figure by a few bytes at most. A cache
//     set gets its lines on its first fill, so a fresh machine holds
//     none, and a regrown cache line shows only in a cell that fills
//     lines: 8 more bytes a line adds 46,528 bytes/op to mesi_spin_cell
//     and nothing to machine_new_64. machine_new_64 bounds what a machine builds
//     eagerly, verify_set_16 the verifier's abstract states, and
//     generate_64 a thread set's programs. ns/op would hide each inside
//     the tolerance.
//   - ns/op may drift up to -tolerance x the baseline (default 4x). CI
//     runners and dev laptops differ by small integer factors; an
//     order-of-magnitude cliff is a lost fast path, not a slow machine.
//   - machine-independent ratios measured WITHIN one run of one machine:
//     the calendar-wheel kernel must hold at least a 2x lead over the
//     heap-only reference on the spin-wave distribution, and checkpoint
//     recording must stay within 2.5x of the same cell run plain
//     (measured ~1.3x at the default digest-mark cadence once the memory
//     path stopped allocating; the headroom absorbs runner load, not a
//     lost fast path), and each spin cell (MESI and VIPS back-off) with
//     a metrics collector attached must stay within 1.2x of the plain
//     cell (on a 2-vCPU VM, formatting a string per message cost 1.7x,
//     and settling parked spin loops event by event 1.6x). That ratio
//     is the median of alternating rounds benchsnap records with the
//     observed cell (ratio_to_plain): the host's drift alone read the
//     same code at 1.09-1.21x across two back-to-back benchmarks.
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
	EventsPerOp uint64  `json:"events_per_op,omitempty"`
	// RatioToPlain is an observed spin cell's median per-round time
	// ratio to the plain cell.
	RatioToPlain float64 `json:"ratio_to_plain,omitempty"`
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

// bytesGated names the entries whose bytes/op the gate bounds.
var bytesGated = map[string]bool{"machine_new_64": true, "mesi_spin_cell": true, "verify_set_16": true, "generate_64": true}

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
		if c.EventsPerOp != b.EventsPerOp {
			failures = append(failures, fmt.Sprintf("%s: events/op %d, baseline %d (must match exactly)",
				name, c.EventsPerOp, b.EventsPerOp))
		}
		if bytesGated[name] && c.BytesPerOp > b.BytesPerOp+b.BytesPerOp/100 {
			failures = append(failures, fmt.Sprintf("%s: bytes/op %d exceeds baseline %d by more than 1%%",
				name, c.BytesPerOp, b.BytesPerOp))
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
	for _, cell := range []string{"mesi_spin_cell", "vips_spin_cell"} {
		if r := cur.Benchmarks[cell+"_observed"].RatioToPlain; r <= 0 {
			failures = append(failures, fmt.Sprintf("%s/%s_observed missing from PR snapshot", cell, cell))
		} else if r > 1.2 {
			failures = append(failures, fmt.Sprintf(
				"observed %s: median per-round overhead %.2fx, want <= 1.2x", cell, r))
		}
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
