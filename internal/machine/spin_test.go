package machine

import (
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

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/mesi"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateSpin = flag.Bool("update-spin", false,
	"rewrite the spin golden files in testdata from the current simulator")

// Invalidation spin loops are parked: a core spinning on a resident L1
// line schedules nothing until a message is sent to its L1. The golden
// files these tests compare against were recorded before parking
// existed, so they pin the behaviour parking must reproduce exactly.

// spinProgram emits "spin until [flag] != 0" with pad Nops in the loop
// body, inside a wait phase, after pre cycles of compute.
func spinProgram(flag memtypes.Addr, pad int, pre uint64) *isa.Program {
	b := isa.NewBuilder()
	if pre > 0 {
		b.Compute(pre)
	}
	b.Imm(isa.R1, uint64(flag))
	b.SyncBegin(isa.SyncWait)
	b.Label("spin")
	b.Ld(isa.R2, isa.R1, 0)
	for i := 0; i < pad; i++ {
		b.Nop()
	}
	b.Beqz(isa.R2, "spin")
	b.SyncEnd(isa.SyncWait)
	b.Done()
	return b.MustBuild()
}

// spinInvMachine builds a 4-core MESI machine in which core 0 spins on
// flag and the writer core first loads flag (so both end up sharing it)
// and stores 1 after delay cycles: the store's GetX sends core 0 an Inv.
func spinInvMachine(flag memtypes.Addr, writer, pad int, delay uint64) *Machine {
	cfg := Default(ProtocolMESI)
	cfg.Cores = 4
	m := New(cfg, nil)
	wb := isa.NewBuilder()
	wb.Imm(isa.R1, uint64(flag))
	wb.Ld(isa.R2, isa.R1, 0)
	wb.Compute(delay)
	wb.Imm(isa.R3, 1)
	wb.St(isa.R1, 0, isa.R3)
	wb.Done()
	m.Load(writer, wb.MustBuild(), nil)
	m.Load(0, spinProgram(flag, pad, 40), nil) // the writer takes the line first
	return m
}

// spinInvCases place the Inv's sender relative to the spinner (tile 0 of
// the 2x2 mesh): the flag's home directory on the spinner's own tile, on
// a neighbouring tile, or on the writer's tile (whose GetX then arrives
// locally, one cycle after it is sent).
var spinInvCases = []struct {
	name   string
	flag   memtypes.Addr
	writer int
}{
	{"local-dir", 0x1000, 3},  // home 0: the Inv is sent on-tile
	{"remote-dir", 0x1040, 3}, // home 1: the Inv crosses one link
	{"writer-dir", 0x1040, 1}, // home 1 is the writer's tile
}

// spinInvDelays sweeps the writer's delay over two loop periods of the
// longest pad, so every case lands the Inv on an access cycle at least
// once.
const spinInvDelays = 24

// spinRunStats runs m to completion and returns its Stats as JSON (with
// the cycle stacks when accounting is attached).
func spinRunStats(t *testing.T, m *Machine) []byte {
	t.Helper()
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// invOnAccess reports whether the Inv for core 0 is delivered on a cycle
// at which core 0 issues a load of the flag.
func invOnAccess(t *testing.T, m *Machine) bool {
	t.Helper()
	var inv uint64
	m.Mesh.SetObserver(func(e trace.Event) {
		if e.B>>8 == uint64(mesi.MsgInv) && e.Node() == 0 {
			inv = e.Cycle
		}
	}, trace.Of(trace.EvNoCDeliver))
	access := map[uint64]bool{}
	m.Cores[0].SetObserver(func(e trace.Event) {
		access[e.Cycle] = true
	}, trace.Of(trace.EvStallBegin))
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return inv != 0 && access[inv]
}

func spinInvHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range spinInvCases {
		for _, pad := range []int{0, 6} {
			for _, acc := range []bool{false, true} {
				h := sha256.New()
				hit := false
				for d := uint64(0); d < spinInvDelays; d++ {
					delay := 400 + d
					m := spinInvMachine(c.flag, c.writer, pad, delay)
					if acc {
						m.AttachCycles(cycles.NewAccumulator(len(m.Cores)))
					}
					h.Write(spinRunStats(t, m))
					if invOnAccess(t, spinInvMachine(c.flag, c.writer, pad, delay)) {
						hit = true
					}
				}
				if !hit {
					t.Fatalf("%s pad %d: no delay lands the Inv on an access cycle", c.name, pad)
				}
				out[fmt.Sprintf("%s/pad=%d/cycles=%v", c.name, pad, acc)] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return out
}

// A store's Inv reaching a parked spinner exactly on one of its access
// cycles — from the spinner's own tile, from a neighbour, and after a
// GetX that arrived locally at the directory — leaves Stats (and cycle
// stacks) identical to the unparked simulator's.
func TestSpinInvOnAccessCycleMatchesPinned(t *testing.T) {
	const file = "testdata/spin_inv.txt"
	got := spinInvHashes(t)
	if *updateSpin {
		var b strings.Builder
		b.WriteString("# SHA-256 over the json.Marshal(Stats) of each delay of TestSpinInvOnAccessCycleMatchesPinned.\n")
		for _, c := range spinInvCases {
			for _, pad := range []int{0, 6} {
				for _, acc := range []bool{false, true} {
					k := fmt.Sprintf("%s/pad=%d/cycles=%v", c.name, pad, acc)
					fmt.Fprintf(&b, "%s %s\n", k, got[k])
				}
			}
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d cases, the test runs %d", file, len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: Stats hash %s, pinned %s", k, got[k], w)
		}
	}
}

// spinForeverMachine has every core spin on a flag nobody writes.
func spinForeverMachine() *Machine {
	cfg := Default(ProtocolMESI)
	cfg.Cores = 4
	m := New(cfg, nil)
	for i := range m.Cores {
		m.Load(i, spinProgram(0x2000, i, 0), nil)
	}
	return m
}

// Cores that spin forever fail at the Run limit exactly as an unparked
// simulator does: ErrLimit with the same error text (cycle and
// diagnosis) and the same Stats, never a drained event queue. The limit
// is exceeded mid-loop, so settling must credit accesses at or before
// it and nothing after.
func TestSpinForeverHitsLimit(t *testing.T) {
	const file = "testdata/spin_forever.golden"
	var b strings.Builder
	for _, limit := range []uint64{100_000, 100_001, 100_002, 100_003} {
		for _, acc := range []bool{false, true} {
			m := spinForeverMachine()
			if acc {
				m.AttachCycles(cycles.NewAccumulator(len(m.Cores)))
			}
			err := m.Run(limit)
			if !errors.Is(err, sim.ErrLimit) {
				t.Fatalf("limit %d: err = %v, want ErrLimit", limit, err)
			}
			if now := m.K.Now(); now != limit {
				t.Fatalf("limit %d: stopped at cycle %d", limit, now)
			}
			st, jerr := json.Marshal(m.Stats())
			if jerr != nil {
				t.Fatal(jerr)
			}
			fmt.Fprintf(&b, "limit %d cycles=%v\n%s\n%s\n", limit, acc, err, st)
		}
	}
	if *updateSpin {
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("spin-forever outcome differs from %s:\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// spinWaitMachine: core 0 stores the flag after delay cycles of compute
// while cores 1..3 spin on it under MESI.
func spinWaitMachine(cfg Config, delay uint64) *Machine {
	m := New(cfg, nil)
	wb := isa.NewBuilder()
	wb.Compute(delay)
	wb.Imm(isa.R1, 0x1000)
	wb.Imm(isa.R2, 1)
	wb.St(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)
	for i := 1; i < len(m.Cores); i++ {
		m.Load(i, spinProgram(0x1000, i-1, 0), nil)
	}
	return m
}

// Two machines paused at the same boundary by different chunkings hold
// identical mid-run Stats and digests while their spinners stay parked
// across every boundary.
func TestRunToCycleBoundaryIndependenceMESISpin(t *testing.T) {
	cfg := Default(ProtocolMESI)
	cfg.Cores = 4
	const boundary = 5_003

	a := spinWaitMachine(cfg, 10_000)
	if done, err := a.RunToCycle(boundary); err != nil || done {
		t.Fatalf("one-shot RunToCycle(%d): done=%v err=%v", boundary, done, err)
	}
	b := spinWaitMachine(cfg, 10_000)
	for target := uint64(7); target < boundary; target += 7 {
		if done, err := b.RunToCycle(target); err != nil || done {
			t.Fatalf("stepped RunToCycle(%d): done=%v err=%v", target, done, err)
		}
		b.Stats() // reading mid-run must not perturb the run
	}
	if done, err := b.RunToCycle(boundary); err != nil || done {
		t.Fatalf("stepped RunToCycle(%d): done=%v err=%v", boundary, done, err)
	}
	as, bs := a.Stats(), b.Stats()
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("mid-run Stats depend on chunking:\none-shot %+v\nstepped  %+v", as, bs)
	}
	if ad, bd := a.Digest(ScopeFull), b.Digest(ScopeFull); ad != bd {
		t.Fatalf("mid-run digests depend on chunking: %#x vs %#x", ad, bd)
	}
	for i := 1; i < 4; i++ {
		if !a.Cores[i].Parked() {
			t.Fatalf("core %d is not parked at the boundary", i)
		}
	}
	// The pause counts every spin iteration before the boundary, as the
	// unparked simulator's Stats there did.
	got, err := json.Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	const file = "testdata/spin_boundary.golden"
	if *updateSpin {
		if err := os.WriteFile(file, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(file); err != nil {
		t.Fatal(err)
	} else if string(got)+"\n" != string(want) {
		t.Fatalf("Stats at the boundary differ from %s:\ngot  %s\nwant %s", file, got, want)
	}

	// Both finish exactly like an unchunked run.
	ref := spinWaitMachine(cfg, 10_000)
	if err := ref.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{a, b} {
		if err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked run ends with different Stats:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// A MESI run whose only progress for many watchdog windows is a parked
// spinner never trips the watchdog: the watchdog's progress metric
// counts the instructions the parked loop retires.
func TestWatchdogQuietOnParkedSpin(t *testing.T) {
	cfg := Default(ProtocolMESI)
	cfg.Cores = 4
	cfg.Watchdog = 20_000
	m := New(cfg, nil)
	wb := isa.NewBuilder()
	wb.Compute(2_000_000)
	wb.Imm(isa.R1, 0x1000)
	wb.Imm(isa.R2, 1)
	wb.St(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)
	m.Load(1, spinProgram(0x1000, 0, 0), nil)
	keepAlive(m) // events that retire nothing, so the watchdog polls
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("watchdog tripped on a correct run: %v", err)
	}
}
