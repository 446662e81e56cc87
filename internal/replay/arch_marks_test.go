package replay_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

var updateArchMarks = flag.Bool("update-arch-marks", false,
	"rewrite testdata/arch_marks.txt from the current simulator")

// archMarksFile pins the architectural state (machine.ScopeArch: the
// memory store and which cores are done) at every mark boundary of the
// BackOff-0 recordings replay_pins.txt covers. A ScopeFull mark folds the
// kernel's executed-event count, which an event-saving change moves on
// purpose; the architectural digest at each boundary must not move.
const archMarksFile = "testdata/arch_marks.txt"

// archMark is one boundary's architectural digest.
type archMark struct {
	Cycle  uint64 `json:"cycle"`
	Digest uint64 `json:"digest"`
}

// archMarks runs bench/BackOff-0 (16 cores, scalable) the way
// recordPins records it and digests ScopeArch at every pinInterval
// boundary, cycle 0 included, until the run completes.
func archMarks(t *testing.T, bench string) []archMark {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.SetupByName("BackOff-0")
	if err != nil {
		t.Fatal(err)
	}
	src := experiments.BenchmarkSource(p, s, workload.StyleScalable, experiments.Options{Cores: 16})
	m, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	marks := []archMark{{0, m.Digest(machine.ScopeArch)}}
	for next := uint64(pinInterval); ; next += pinInterval {
		done, err := m.RunToCycle(nil, next)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if done {
			return marks
		}
		marks = append(marks, archMark{next, m.Digest(machine.ScopeArch)})
	}
}

// Every mark boundary of the BackOff-0 recordings holds the pinned
// architectural state.
func TestBackoffArchMarksMatchPins(t *testing.T) {
	var got []pin
	for _, bench := range []string{"fft", "radiosity", "dedup"} {
		marks := archMarks(t, bench)
		data, err := json.Marshal(marks)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pin{bench + "/BackOff-0/arch-marks", fmt.Sprintf("%d:%s", len(marks), pinHash(data))})
	}
	if *updateArchMarks {
		var b strings.Builder
		b.WriteString("# <mark count>:<SHA-256 of the JSON list of (cycle, ScopeArch digest)> per\n")
		b.WriteString("# 16-core scalable BackOff-0 run, a mark every 4096 cycles. Regenerate only\n")
		b.WriteString("# for an intended behaviour change: go test ./internal/replay -run TestBackoffArchMarksMatchPins -update-arch-marks\n")
		for _, p := range got {
			fmt.Fprintf(&b, "%s %s\n", p.key, p.value)
		}
		if err := os.WriteFile(archMarksFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(archMarksFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d pins, the test computes %d", archMarksFile, len(want), len(got))
	}
	for _, p := range got {
		if want[p.key] != p.value {
			t.Errorf("%s: got %s, pinned %s", p.key, p.value, want[p.key])
		}
	}
}

var updateFullMarks = flag.Bool("update-full-marks", false,
	"rewrite testdata/full_marks.txt from the current simulator")

// fullMarksFile pins the full digest (machine.ScopeFull) at every mark of
// the 16-core BackOff-0 and BackOff-5 recordings, without the marks'
// executed-event counts. It was recorded before back-off spins on a
// core's own bank were parked: a digest wakes such a loop and counts the
// events passed for it as executed, so every mark must still read as the
// simulated loop's state.
const fullMarksFile = "testdata/full_marks.txt"

// Every mark of the BackOff-0 and BackOff-5 recordings holds the pinned
// full digest.
func TestBackoffFullMarksMatchPins(t *testing.T) {
	var got []pin
	for _, bench := range []string{"fft", "radiosity", "dedup"} {
		for _, setup := range []string{"BackOff-0", "BackOff-5"} {
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			s, err := experiments.SetupByName(setup)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := experiments.RecordBenchmark(p, s, workload.StyleScalable, experiments.Options{Cores: 16}, pinInterval)
			if err != nil {
				t.Fatal(err)
			}
			var marks []archMark
			for _, mk := range rec.Marks() {
				marks = append(marks, archMark{mk.Cycle, mk.Digest})
			}
			data, err := json.Marshal(marks)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pin{bench + "/" + setup + "/full-marks", fmt.Sprintf("%d:%s", len(marks), pinHash(data))})
		}
	}
	if *updateFullMarks {
		var b strings.Builder
		b.WriteString("# <mark count>:<SHA-256 of the JSON list of (cycle, ScopeFull digest)> per\n")
		b.WriteString("# 16-core scalable recording, a mark every 4096 cycles. Regenerate only\n")
		b.WriteString("# for an intended behaviour change: go test ./internal/replay -run TestBackoffFullMarksMatchPins -update-full-marks\n")
		for _, p := range got {
			fmt.Fprintf(&b, "%s %s\n", p.key, p.value)
		}
		if err := os.WriteFile(fullMarksFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fullMarksFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d pins, the test computes %d", fullMarksFile, len(want), len(got))
	}
	for _, p := range got {
		if want[p.key] != p.value {
			t.Errorf("%s: got %s, pinned %s", p.key, p.value, want[p.key])
		}
	}
}
