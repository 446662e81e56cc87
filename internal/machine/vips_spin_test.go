package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vips"
)

// Back-off spins on a core's own bank are parked under VIPS: a core whose
// ld_through loop reads a line homed on its own tile schedules nothing
// until a message is sent to the tile. The golden file these tests
// compare against was recorded before that parking existed, so it pins
// the behaviour parking must reproduce exactly whichever of the loop's
// six events is pending when the message is sent.

// ownFlag is homed on tile 0 of the 2x2 mesh (line index 64 mod 4 = 0).
const ownFlag memtypes.Addr = 0x1000

// backoffSpinProgram spins on ownFlag with ld_through and back-off, the
// loop synclib emits for the back-off flavour, inside a wait phase.
func backoffSpinProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Imm(isa.R1, uint64(ownFlag))
	b.SyncBegin(isa.SyncWait)
	b.BackoffReset()
	b.Label("spin")
	b.LdThrough(isa.R2, isa.R1, 0)
	b.Bnez(isa.R2, "exit")
	b.BackoffWait()
	b.Jmp("spin")
	b.Label("exit")
	b.SyncEnd(isa.SyncWait)
	b.Done()
	return b.MustBuild()
}

// spinWakeBase is when the writers' messages start: every spinner has
// long been periodic by then (BackOff-5 saturates within ~350 cycles).
const spinWakeBase = 600

// spinWakeWriters send the spinner's tile a message after delay cycles
// past spinWakeBase, from a writer on another tile.
var spinWakeWriters = []struct {
	name  string
	build func(delay uint64) *isa.Program
}{
	// release: a st_through that ends the spin.
	{"release", func(delay uint64) *isa.Program {
		b := isa.NewBuilder()
		b.Compute(spinWakeBase + delay)
		b.Imm(isa.R1, uint64(ownFlag))
		b.Imm(isa.R2, 1)
		b.StThrough(isa.R1, 0, isa.R2)
		b.Done()
		return b.MustBuild()
	}},
	// touch: a ld_through of another word of the flag's line, which
	// contends for the bank's line lock and changes nothing; the
	// release follows 300 cycles later.
	{"touch", func(delay uint64) *isa.Program {
		b := isa.NewBuilder()
		b.Compute(spinWakeBase + delay)
		b.Imm(isa.R1, uint64(ownFlag))
		b.LdThrough(isa.R3, isa.R1, 8)
		b.Compute(300)
		b.Imm(isa.R2, 1)
		b.StThrough(isa.R1, 0, isa.R2)
		b.Done()
		return b.MustBuild()
	}},
	// hits: three L1 hits on a line homed off the spinner's tile, then
	// the release issued in the last hit's response event (no cycle
	// between them), so it can fall between two same-cycle events of
	// the spinner.
	{"hits", func(delay uint64) *isa.Program {
		b := isa.NewBuilder()
		b.Imm(isa.R1, uint64(ownFlag))
		b.Imm(isa.R2, 1)
		b.Imm(isa.R4, 0x2040) // line index 129: tile 1
		b.Ld(isa.R5, isa.R4, 0)
		b.Compute(spinWakeBase + delay)
		b.Ld(isa.R5, isa.R4, 0)
		b.Ld(isa.R5, isa.R4, 0)
		b.Ld(isa.R5, isa.R4, 0)
		b.StThrough(isa.R1, 0, isa.R2)
		b.Done()
		return b.MustBuild()
	}},
}

// spinWakeMachine builds a 4-core BackOff-limit machine in which core 0
// spins on ownFlag and core writer runs the writer program.
func spinWakeMachine(limit, writer int, prog *isa.Program) *Machine {
	cfg := Default(ProtocolBackoff)
	cfg.Cores = 4
	cfg.BackoffLimit = limit
	m := New(cfg, nil)
	m.Load(0, backoffSpinProgram(), nil)
	m.Load(writer, prog, nil)
	return m
}

// spinWakeDelays sweeps the writer over two periods of the slowest
// parkable loop (BackOff-5: 24 cycles).
const spinWakeDelays = 48

// allKinds wants every event kind, so nothing is parked while it is
// attached.
type allKinds func(trace.Event)

func (allKinds) Kinds() trace.Mask    { return ^trace.Mask(0) }
func (f allKinds) Emit(e trace.Event) { f(e) }

// wakePhases runs m with every kind observed and returns the phases of
// core 0's loop pending at each message another tile sends tile 0:
// 1 the step after the wait, 2 the issue, 3 the ld_through's delivery,
// 4 the bank's load, 5 the response's delivery, 6 the L1's response.
func wakePhases(t *testing.T, m *Machine) []int {
	t.Helper()
	var phases []int
	last, waited := 0, false
	m.AttachTrace(allKinds(func(e trace.Event) {
		kind := memtypes.MsgKind(e.B >> 8)
		src, dst := memtypes.NodeID(e.A>>32), memtypes.NodeID(uint32(e.A))
		switch {
		case e.Kind == trace.EvNoCSend && dst == 0 && src != 0:
			phases = append(phases, last%6+1)
		case e.Core != 0:
		case e.Kind == trace.EvWait:
			waited = true
		case e.Kind == trace.EvExec && waited:
			last, waited = 1, false
		case e.Kind == trace.EvStallBegin:
			last = 2
		case e.Kind == trace.EvNoCDeliver && kind == vips.MsgRacy && dst == 0:
			last = 3
		case e.Kind == trace.EvNoCSend && kind == vips.MsgRacyResp && src == 0:
			last = 4
		case e.Kind == trace.EvNoCDeliver && kind == vips.MsgRacyResp && dst == 0:
			last = 5
		case e.Kind == trace.EvStallEnd:
			last = 6
		}
	}))
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return phases
}

// spinWakeRun runs m to completion and returns its Stats as JSON,
// followed, when a metrics collector is attached, by the spin-wait
// histogram's count and sum.
func spinWakeRun(t *testing.T, m *Machine, collect bool) []byte {
	t.Helper()
	var sm *obs.SimMetrics
	if collect {
		sm = obs.NewSimMetrics(obs.NewRegistry())
		m.AttachTrace(trace.NewMetricsCollector(sm))
	}
	out := spinRunStats(t, m)
	if m.Cores[0].Ghosted() == 0 {
		t.Fatal("the spinner never parked")
	}
	if collect {
		out = fmt.Appendf(out, " spin.wait count=%d sum=%g", sm.SpinWait.Count(), sm.SpinWait.Sum())
	}
	return out
}

func spinWakeHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, limit := range []int{0, 5} {
		covered := map[int]bool{}
		for _, w := range spinWakeWriters {
			for _, writer := range []int{1, 3} {
				for _, collect := range []bool{false, true} {
					h := sha256.New()
					for d := uint64(0); d < spinWakeDelays; d++ {
						h.Write(spinWakeRun(t, spinWakeMachine(limit, writer, w.build(d)), collect))
						if !collect {
							for _, p := range wakePhases(t, spinWakeMachine(limit, writer, w.build(d))) {
								covered[p] = true
							}
						}
					}
					out[fmt.Sprintf("backoff=%d/%s/writer=%d/metrics=%v", limit, w.name, writer, collect)] = hex.EncodeToString(h.Sum(nil))
				}
			}
		}
		for p := 1; p <= 6; p++ {
			if !covered[p] {
				t.Errorf("BackOff-%d: no message reaches the spinner's tile while phase %d is pending", limit, p)
			}
		}
	}
	return out
}

// A message sent to the tile of a parked back-off spinner while any of
// its loop's six events is pending — a release, a ld_through that
// contends for the flag's line lock, a release sent between two events
// of one cycle — leaves Stats, and the spin-wait histogram a metrics
// collector fills, identical to the unparked simulator's.
func TestSpinWakeInEveryPhaseMatchesPinned(t *testing.T) {
	const file = "testdata/spin_wake.txt"
	got := spinWakeHashes(t)
	if *updateSpin {
		var b strings.Builder
		b.WriteString("# SHA-256 over the json.Marshal(Stats) (plus the spin-wait histogram with metrics) of each delay of TestSpinWakeInEveryPhaseMatchesPinned.\n")
		for _, limit := range []int{0, 5} {
			for _, w := range spinWakeWriters {
				for _, writer := range []int{1, 3} {
					for _, collect := range []bool{false, true} {
						k := fmt.Sprintf("backoff=%d/%s/writer=%d/metrics=%v", limit, w.name, writer, collect)
						fmt.Fprintf(&b, "%s %s\n", k, got[k])
					}
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
