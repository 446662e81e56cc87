package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnapshot(t *testing.T, dir, name string, s snapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ratioPairs are healthy same-machine ratio entries, included so the
// diff failures under test are not drowned out by missing-ratio noise.
func ratioPairs() map[string]benchPerf {
	return map[string]benchPerf{
		"spin_wave_wheel":   {NsPerOp: 100},
		"spin_wave_heap":    {NsPerOp: 300},
		"replay_record_off": {NsPerOp: 1e6},
		"replay_record_on":  {NsPerOp: 1.8e6},

		"mesi_spin_cell":          {NsPerOp: 1e6},
		"mesi_spin_cell_observed": {NsPerOp: 1.1e6},
		"vips_spin_cell":          {NsPerOp: 1e6},
		"vips_spin_cell_observed": {NsPerOp: 1.1e6},
	}
}

// TestGateReportsAllFailuresInOneRun pins that the gate collects every
// out-of-tolerance entry instead of stopping at the first: a single CI
// run must show the full damage report.
func TestGateReportsAllFailuresInOneRun(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["alloc_regressed"] = benchPerf{NsPerOp: 100, AllocsPerOp: 0}
	base.Benchmarks["ns_cliff"] = benchPerf{NsPerOp: 100, AllocsPerOp: 2}
	base.Benchmarks["dropped"] = benchPerf{NsPerOp: 100}
	base.Benchmarks["healthy"] = benchPerf{NsPerOp: 100, AllocsPerOp: 1}

	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["alloc_regressed"] = benchPerf{NsPerOp: 100, AllocsPerOp: 3}
	pr.Benchmarks["ns_cliff"] = benchPerf{NsPerOp: 1000, AllocsPerOp: 2}
	// "dropped" deliberately absent from the PR snapshot.
	pr.Benchmarks["healthy"] = benchPerf{NsPerOp: 150, AllocsPerOp: 1}

	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 3 {
		t.Fatalf("failures = %d, want 3:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	wants := []string{
		"alloc_regressed: allocs/op 3, baseline 0",
		"ns_cliff: 1000.0 ns/op exceeds 4x baseline 100.0",
		"dropped: present in baseline but missing from PR snapshot",
	}
	for _, want := range wants {
		found := false
		for _, f := range failures {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("failures missing %q:\n%s", want, strings.Join(failures, "\n"))
		}
	}
	for _, f := range failures {
		if strings.Contains(f, "healthy") {
			t.Errorf("healthy benchmark flagged: %s", f)
		}
	}
}

// TestGateRatioFailuresAccumulateToo: a broken same-machine ratio is
// reported alongside the per-benchmark diffs, not instead of them.
func TestGateRatioFailuresAccumulateToo(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["ns_cliff"] = benchPerf{NsPerOp: 100}

	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["ns_cliff"] = benchPerf{NsPerOp: 1000}
	pr.Benchmarks["spin_wave_wheel"] = benchPerf{NsPerOp: 200} // lead only 1.5x
	delete(pr.Benchmarks, "replay_record_on")

	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	// ns cliff + wheel lead lost + replay pair missing twice (as a
	// dropped baseline benchmark and as a broken ratio).
	wants := []string{
		"ns_cliff: 1000.0 ns/op",
		"lead 1.50x, want >= 2x",
		"replay_record_on/replay_record_off missing",
		"replay_record_on: present in baseline but missing",
	}
	for _, want := range wants {
		found := false
		for _, f := range failures {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("failures missing %q:\n%s", want, strings.Join(failures, "\n"))
		}
	}
}

// TestGateCleanRunPasses: matching snapshots with healthy ratios
// produce no failures.
func TestGateCleanRunPasses(t *testing.T) {
	dir := t.TempDir()
	s := snapshot{Benchmarks: ratioPairs()}
	s.Benchmarks["kernel"] = benchPerf{NsPerOp: 42, AllocsPerOp: 0}
	failures, err := gate(
		writeSnapshot(t, dir, "base.json", s),
		writeSnapshot(t, dir, "pr.json", s), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("clean run produced failures:\n%s", strings.Join(failures, "\n"))
	}
}

// A whole-cell benchmark whose kernel event count moved fails the gate
// even when its time and allocations hold: a lost event-saving fast path
// (spin parking) shows in events/op first.
func TestGateEventsPerOpExact(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["mesi_spin_cell"] = benchPerf{NsPerOp: 1e6, AllocsPerOp: 10, EventsPerOp: 33426}
	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["mesi_spin_cell"] = benchPerf{NsPerOp: 1e6, AllocsPerOp: 10, EventsPerOp: 618000}
	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "events/op 618000, baseline 33426") {
		t.Fatalf("failures = %q, want one events/op failure", failures)
	}
}

// The observed spin cell may cost at most 1.2x the plain one on the same
// machine: a string formatted per message, or parked loops settling
// event by event, shows here even when both cells stay within the ns/op
// tolerance.
func TestGateObservedSpinRatio(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["mesi_spin_cell_observed"] = benchPerf{NsPerOp: 1.5e6}
	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "overhead 1.50x, want <= 1.2x") {
		t.Fatalf("failures = %q, want one observed-spin ratio failure", failures)
	}
}

// The observed VIPS back-off cell is held to the same 1.2x: parked
// own-bank loops settle their back-off waits in bulk for a metrics
// collector instead of waking for it.
func TestGateObservedVIPSSpinRatio(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["vips_spin_cell_observed"] = benchPerf{NsPerOp: 1.3e6}
	delete(pr.Benchmarks, "mesi_spin_cell_observed")
	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"observed vips_spin_cell: 1.30 ms/run vs 1.00 ms plain — overhead 1.30x, want <= 1.2x",
		"mesi_spin_cell/mesi_spin_cell_observed missing from PR snapshot",
		"mesi_spin_cell_observed: present in baseline but missing",
	}
	if len(failures) != len(wants) {
		t.Fatalf("failures = %q, want %d", failures, len(wants))
	}
	for _, want := range wants {
		found := false
		for _, f := range failures {
			found = found || strings.Contains(f, want)
		}
		if !found {
			t.Errorf("failures missing %q:\n%s", want, strings.Join(failures, "\n"))
		}
	}
}

// machine.New's bytes/op may not grow past the baseline by more than 1%,
// while ungated benchmarks' bytes/op may: eagerly built line storage
// costs bytes long before it costs 4x in ns/op.
func TestGateMachineNewBytes(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["machine_new_64"] = benchPerf{NsPerOp: 4e6, AllocsPerOp: 1181, BytesPerOp: 11_380_000}
	base.Benchmarks["replay_record_off"] = benchPerf{NsPerOp: 1e6, BytesPerOp: 100}
	pr := snapshot{Benchmarks: ratioPairs()}
	pr.Benchmarks["machine_new_64"] = benchPerf{NsPerOp: 4e6, AllocsPerOp: 1181, BytesPerOp: 28_154_154}
	pr.Benchmarks["replay_record_off"] = benchPerf{NsPerOp: 1e6, BytesPerOp: 200}
	failures, err := gate(
		writeSnapshot(t, dir, "base.json", base),
		writeSnapshot(t, dir, "pr.json", pr), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "machine_new_64: bytes/op 28154154 exceeds baseline 11380000 by more than 1%") {
		t.Fatalf("failures = %q, want one machine_new_64 bytes failure", failures)
	}

	// Run-to-run jitter of a few bytes, and any shrink, pass.
	for _, bytes := range []int64{11_380_004, 11_000_000} {
		pr.Benchmarks["machine_new_64"] = benchPerf{NsPerOp: 4e6, AllocsPerOp: 1181, BytesPerOp: bytes}
		failures, err = gate(
			writeSnapshot(t, dir, "base.json", base),
			writeSnapshot(t, dir, "pr2.json", pr), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) != 0 {
			t.Fatalf("machine.New at %d bytes/op flagged: %q", bytes, failures)
		}
	}
}

// The plain spin cell's bytes/op follow the same 1% rule. A fresh
// machine holds no cache lines, so a regrown line shows in a cell that
// fills lines and not in machine_new_64: 8 more bytes a line took the
// cell from 1,206,016 to 1,252,544 bytes/op.
func TestGateSpinCellBytes(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["mesi_spin_cell"] = benchPerf{NsPerOp: 1e6, AllocsPerOp: 2501, BytesPerOp: 1_206_016}
	pr := snapshot{Benchmarks: ratioPairs()}
	for bytes, want := range map[int64]bool{1_252_544: true, 1_218_077: true, 1_218_076: false, 1_206_020: false, 1_000_000: false} {
		pr.Benchmarks["mesi_spin_cell"] = benchPerf{NsPerOp: 1e6, AllocsPerOp: 2501, BytesPerOp: bytes}
		failures, err := gate(
			writeSnapshot(t, dir, "base.json", base),
			writeSnapshot(t, dir, "pr.json", pr), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(failures) == 1 && strings.Contains(failures[0], "mesi_spin_cell: bytes/op"); got != want || len(failures) > 1 {
			t.Fatalf("mesi_spin_cell at %d bytes/op: failures = %q, want flagged %v", bytes, failures, want)
		}
	}
}

// TestGateVerifySetBytes pins the same 1% bytes/op rule on the program
// verifier's entry, so a regrown abstract state fails the gate.
func TestGateVerifySetBytes(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["verify_set_16"] = benchPerf{NsPerOp: 1e7, AllocsPerOp: 144, BytesPerOp: 6_053_600}
	pr := snapshot{Benchmarks: ratioPairs()}
	for bytes, want := range map[int64]bool{8_298_200: true, 6_053_650: false, 5_000_000: false} {
		pr.Benchmarks["verify_set_16"] = benchPerf{NsPerOp: 1e7, AllocsPerOp: 144, BytesPerOp: bytes}
		failures, err := gate(
			writeSnapshot(t, dir, "base.json", base),
			writeSnapshot(t, dir, "pr.json", pr), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(failures) == 1 && strings.Contains(failures[0], "verify_set_16: bytes/op"); got != want || len(failures) > 1 {
			t.Fatalf("verify_set_16 at %d bytes/op: failures = %q, want flagged %v", bytes, failures, want)
		}
	}
}

// generate_64 follows the same 1% rule: a thread set whose programs each
// held their own instructions took 7,170,406 bytes/op, against 1,871,340
// with one shared table.
func TestGateGenerateBytes(t *testing.T) {
	dir := t.TempDir()
	base := snapshot{Benchmarks: ratioPairs()}
	base.Benchmarks["generate_64"] = benchPerf{NsPerOp: 7e6, AllocsPerOp: 14206, BytesPerOp: 1_871_340}
	pr := snapshot{Benchmarks: ratioPairs()}
	for bytes, want := range map[int64]bool{7_170_406: true, 1_890_054: true, 1_890_053: false, 1_871_342: false, 1_000_000: false} {
		pr.Benchmarks["generate_64"] = benchPerf{NsPerOp: 7e6, AllocsPerOp: 14206, BytesPerOp: bytes}
		failures, err := gate(
			writeSnapshot(t, dir, "base.json", base),
			writeSnapshot(t, dir, "pr.json", pr), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(failures) == 1 && strings.Contains(failures[0], "generate_64: bytes/op"); got != want || len(failures) > 1 {
			t.Fatalf("generate_64 at %d bytes/op: failures = %q, want flagged %v", bytes, failures, want)
		}
	}
}
