package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/isa"
)

// parkedMachine builds a machine whose core 0 parks forever: the second
// ld_cb to the same address blocks and nobody ever writes it.
func parkedMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	b := isa.NewBuilder()
	b.Imm(isa.R1, 0x2000)
	b.LdCB(isa.R2, isa.R1, 0) // consumes the fresh entry
	b.LdCB(isa.R2, isa.R1, 0) // parks forever
	b.Done()
	m.Load(0, b.MustBuild(), nil)
	return m
}

// keepAlive keeps the event queue busy without retiring instructions, so
// a parked machine reaches the watchdog instead of draining the queue
// and hitting the plain deadlock diagnosis.
func keepAlive(m *Machine) {
	var tick call
	tick = func() { m.K.ScheduleActor(100, tick, nil, 0) }
	m.K.ScheduleActor(100, tick, nil, 0)
}

// call adapts a function to an actor, so a test can schedule an inline
// body.
type call func()

func (c call) Act(any, uint64) { c() }

func TestWatchdogFiresOnLostWakeup(t *testing.T) {
	m := parkedMachine(t)
	keepAlive(m)
	m.SetWatchdog(50_000)
	err := m.Run(100_000_000)
	if err == nil {
		t.Fatal("watchdog never fired on a parked machine")
	}
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want errors.Is(err, ErrNoProgress)", err)
	}
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %T, want *NoProgressError", err)
	}
	if np.Window != 50_000 {
		t.Errorf("window = %d, want 50000", np.Window)
	}
	if np.Cycle >= 100_000_000 {
		t.Errorf("watchdog fired at the cycle limit (%d), not within the window", np.Cycle)
	}
	if np.ParkedOps != 1 {
		t.Errorf("parked ops = %d, want 1", np.ParkedOps)
	}
	msg := err.Error()
	for _, want := range []string{"no progress", "core  0", "ld_cb", "parked on"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
	// Core 0 is parked, the other cores have no program (done).
	if len(np.Cores) != 4 || !np.Cores[0].Parked || np.Cores[1].Parked {
		t.Errorf("core dump wrong: %+v", np.Cores)
	}
}

// A correct protocol under load must never trip the watchdog, even with
// an aggressively small window: spinning retires instructions and parked
// cores are woken by the write.
func TestWatchdogQuietOnCorrectRun(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	cfg.Watchdog = 20_000
	m := New(cfg, nil)
	flag := uint64(0x1000)
	wb := isa.NewBuilder()
	wb.Compute(5_000)
	wb.Imm(isa.R1, flag)
	wb.Imm(isa.R2, 1)
	wb.StThrough(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)
	rb := isa.NewBuilder()
	rb.Imm(isa.R1, flag)
	rb.Label("spin")
	rb.LdCB(isa.R2, isa.R1, 0)
	rb.Beqz(isa.R2, "spin")
	rb.Done()
	m.Load(1, rb.MustBuild(), nil)
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("watchdog tripped on a correct run: %v", err)
	}
}

// Canceled runs match both the machine sentinel and the underlying
// context error, so callers can test either.
func TestCanceledRunMatchesBothSentinels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := parkedMachine(t)
	err := m.RunContext(ctx, 1_000_000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want errors.Is(err, ErrCanceled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
}

// Invariant checking catches the parked core the moment the final check
// runs, and passes on a clean machine after quiesce.
func TestCheckInvariantsFinal(t *testing.T) {
	m := parkedMachine(t)
	_ = m.Run(100_000) // deadlocks; state stays inspectable
	err := m.CheckInvariants(true)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("final invariants on a parked machine = %v, want ErrInvariant", err)
	}

	// A completed run drains clean.
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m = New(cfg, nil)
	b := isa.NewBuilder()
	b.Imm(isa.R1, 0x3000)
	b.Imm(isa.R2, 7)
	b.StThrough(isa.R1, 0, isa.R2)
	b.Done()
	m.Load(0, b.MustBuild(), nil)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Quiesce(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatalf("final invariants after clean run: %v", err)
	}
}

// Chaos wiring: a chaotic run reports its injected-fault counters and
// still completes; the capacity squeeze reshapes the directory config.
func TestChaosConfigWiring(t *testing.T) {
	spec, err := chaos.Parse("all,cb-capacity=1,cb-evict-lru")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	cfg.Chaos = spec
	cfg.ChaosSeed = 11
	cfg.Watchdog = DefaultWatchdogWindow
	m := New(cfg, nil)
	if m.ChaosEngine() == nil {
		t.Fatal("chaos engine not installed")
	}
	if m.Config().CBEntriesPerBank != 1 {
		t.Fatalf("capacity squeeze not applied: %d entries", m.Config().CBEntriesPerBank)
	}
	flag := uint64(0x1000)
	wb := isa.NewBuilder()
	wb.Compute(5_000)
	wb.Imm(isa.R1, flag)
	wb.Imm(isa.R2, 1)
	wb.StThrough(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)
	rb := isa.NewBuilder()
	rb.Imm(isa.R1, flag)
	rb.Label("spin")
	rb.LdCB(isa.R2, isa.R1, 0)
	rb.Beqz(isa.R2, "spin")
	rb.Done()
	m.Load(1, rb.MustBuild(), nil)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("chaotic run failed: %v", err)
	}
	st := m.Stats()
	if st.Chaos.NoCDelays == 0 {
		t.Error("no NoC delays recorded under the all preset")
	}
	if err := m.Quiesce(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatalf("final invariants after chaotic run: %v", err)
	}
}
