package replay_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateReplay = flag.Bool("update-replay", false,
	"rewrite testdata/replay_pins.txt from the current simulator")

// replayPinsFile pins what the replay layer produces: per recorded cell
// the SHA-256 of its marks, its Stats and its end boundary, plus the
// Stats and Chrome trace of a replayed window; chaos recordings; two
// rendered bisection reports; and the watchdog's verdict on a machine
// that parks forever.
const replayPinsFile = "testdata/replay_pins.txt"

// pinInterval is the mark cadence of every pinned recording.
const pinInterval = 4096

func pinHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func pinJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return pinHash(data)
}

// keepAlive keeps a kernel's queue busy without retiring instructions,
// so a machine whose cores park forever reaches its watchdog instead
// of draining the queue.
type keepAlive struct{ k *sim.Kernel }

func (a *keepAlive) Act(any, uint64) { a.k.ScheduleActor(100, a, nil, 0) }

// stuckWatchdog is the stuck source's watchdog window.
const stuckWatchdog = 50_000

// stuckSource is a 4-core callback machine whose core 0 parks forever
// (its second ld_cb to one address blocks and nothing writes it), with
// the queue kept busy and the watchdog armed.
func stuckSource() replay.Source {
	return replay.Source{
		Label: "stuck",
		Limit: 20_000_000,
		Build: func() (*machine.Machine, error) {
			cfg := machine.Default(machine.ProtocolCallback)
			cfg.Cores = 4
			cfg.Watchdog = stuckWatchdog
			m := machine.New(cfg, nil)
			b := isa.NewBuilder()
			b.Imm(isa.R1, 0x2000)
			b.LdCB(isa.R2, isa.R1, 0) // consumes the fresh entry
			b.LdCB(isa.R2, isa.R1, 0) // parks forever
			b.Done()
			m.Load(0, b.MustBuild(), nil)
			a := &keepAlive{m.K}
			m.K.ScheduleActor(100, a, nil, 0)
			return m, nil
		},
	}
}

type pin struct{ key, value string }

// recordPins records one 16-core scalable cell and replays the middle
// third of it with a Chrome writer attached.
func recordPins(t *testing.T, bench, setup string) []pin {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.SetupByName(setup)
	if err != nil {
		t.Fatal(err)
	}
	key := bench + "/" + setup
	rec, err := experiments.RecordBenchmark(p, s, workload.StyleScalable,
		experiments.Options{Cores: 16}, pinInterval)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	var chrome bytes.Buffer
	cw := trace.NewChromeWriter(&chrome)
	from, to := rec.End()/3, 2*rec.End()/3
	st, err := rec.Replay(nil, from, to, cw)
	if err != nil {
		t.Fatalf("%s: replay [%d,%d): %v", key, from, to, err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return []pin{
		{key + "/marks", pinJSON(t, rec.Marks())},
		{key + "/stats", pinJSON(t, rec.Stats())},
		{key + "/end", fmt.Sprint(rec.End())},
		{key + "/window-stats", pinJSON(t, st)},
		{key + "/window-chrome", pinHash(chrome.Bytes())},
	}
}

// chaosPins records fft under CB-One with a chaos preset and checks its
// Stats against a plain run of the same cell.
func chaosPins(t *testing.T, preset string) []pin {
	t.Helper()
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.SetupByName("CB-One")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := chaos.Parse(preset)
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{Cores: 16, Parallelism: 1, Chaos: spec, ChaosSeed: 3, Watchdog: machine.DefaultWatchdogWindow}
	rec, err := experiments.RecordBenchmark(p, s, workload.StyleScalable, o, pinInterval)
	if err != nil {
		t.Fatalf("chaos %s: %v", preset, err)
	}
	plain, err := experiments.RunBenchmark(p, s, workload.StyleScalable, o)
	if err != nil {
		t.Fatalf("chaos %s: plain run: %v", preset, err)
	}
	if !reflect.DeepEqual(plain.Stats, rec.Stats()) {
		t.Fatalf("chaos %s: recorded Stats differ from a plain run's:\nplain    %+v\nrecorded %+v", preset, plain.Stats, rec.Stats())
	}
	key := "fft/CB-One/chaos=" + preset
	return []pin{
		{key + "/marks", pinJSON(t, rec.Marks())},
		{key + "/stats", pinJSON(t, rec.Stats())},
	}
}

// bisectPin renders fft's bisection report between setups a and b, with
// chaos spec cs (may be "") seeded 7 on side B.
func bisectPin(t *testing.T, a, b, cs string) pin {
	t.Helper()
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	sa, err := experiments.SetupByName(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := experiments.SetupByName(b)
	if err != nil {
		t.Fatal(err)
	}
	oa := experiments.Options{Cores: 16}
	ob := oa
	key := "bisect/" + a + "-vs-" + b
	if cs != "" {
		spec, err := chaos.Parse(cs)
		if err != nil {
			t.Fatal(err)
		}
		ob.Chaos, ob.ChaosSeed = spec, 7
		key += "-" + cs
	}
	rp, err := experiments.BisectBenchmark(p, workload.StyleScalable, sa, oa, sb, ob, pinInterval)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return pin{key, pinHash([]byte(rp.String()))}
}

// stuckPins runs the stuck source plainly: the watchdog names the parked
// core at a fixed cycle.
func stuckPins(t *testing.T) []pin {
	t.Helper()
	src := stuckSource()
	m, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(src.Limit)
	var np *machine.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("stuck run: err = %v, want a *NoProgressError", err)
	}
	return []pin{
		{"stuck/run-cycle", fmt.Sprint(np.Cycle)},
		{"stuck/run-error", pinHash([]byte(err.Error()))},
	}
}

func readReplayPins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(replayPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", replayPinsFile, line)
		}
		want[fields[0]] = fields[1]
	}
	return want
}

// Recording, windowed replay, chaos recording, bisection and the
// watchdog's verdict all produce exactly the pinned bytes.
func TestReplayMatchesPins(t *testing.T) {
	var got []pin
	for _, bench := range []string{"fft", "radiosity", "dedup"} {
		for _, setup := range []string{"Invalidation", "BackOff-0", "CB-One"} {
			got = append(got, recordPins(t, bench, setup)...)
		}
	}
	for _, preset := range []string{"all", "cbdir", "noc"} {
		got = append(got, chaosPins(t, preset)...)
	}
	got = append(got,
		bisectPin(t, "CB-One", "Invalidation", ""),
		bisectPin(t, "CB-One", "CB-One", "evict-storm=0.05"))
	got = append(got, stuckPins(t)...)

	if *updateReplay {
		var b strings.Builder
		b.WriteString("# SHA-256 (or value) of each replay-layer output, at 16 cores with marks\n")
		b.WriteString("# every 4096 cycles. Regenerate only for an intended behaviour change:\n")
		b.WriteString("# go test ./internal/replay -run TestReplayMatchesPins -update-replay\n")
		for _, p := range got {
			fmt.Fprintf(&b, "%s %s\n", p.key, p.value)
		}
		if err := os.WriteFile(replayPinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readReplayPins(t)
	if len(want) != len(got) {
		t.Errorf("%s holds %d pins, the test computes %d", replayPinsFile, len(want), len(got))
	}
	for _, p := range got {
		w, ok := want[p.key]
		if !ok {
			t.Errorf("%s: not pinned in %s", p.key, replayPinsFile)
			continue
		}
		if p.value != w {
			t.Errorf("%s: got %s, pinned %s", p.key, p.value, w)
		}
	}
}
