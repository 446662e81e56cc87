package machine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/memtypes"
	"repro/internal/sim"
)

// This file holds the machine's robustness surface: typed run errors
// (errors.Is-able sentinels), the liveness watchdog, the cross-layer
// invariant checker, and the post-run quiesce drain. Together with
// internal/chaos they turn the paper's "evicting waiters is legal at any
// time" claim into a continuously verified property.

// Sentinel errors for RunContext failures. Match with errors.Is; the
// concrete error types below carry the diagnostic payload.
var (
	// ErrNoProgress reports that the liveness watchdog saw no core
	// retire an instruction or finish for a full watchdog window — a
	// lost wakeup or protocol deadlock. The error is a *NoProgressError
	// carrying a per-core dump.
	ErrNoProgress = errors.New("machine: no progress within watchdog window")

	// ErrCanceled reports a run stopped by its context. The error also
	// matches the underlying ctx.Err() (context.Canceled or
	// context.DeadlineExceeded), so existing errors.Is checks keep
	// working.
	ErrCanceled = errors.New("machine: run canceled")

	// ErrInvariant reports a runtime invariant violation (lost wakeup,
	// message leak, undrained state). The error is an *InvariantError.
	ErrInvariant = errors.New("machine: invariant violated")
)

// DefaultWatchdogWindow is the watchdog window used when chaos runs do
// not specify one: far above any legitimate stall (the worst LLC miss
// plus maximal link queueing and injected jitter is thousands of
// cycles), far below typical run limits.
const DefaultWatchdogWindow = 2_000_000

// CoreDump is one core's state in a NoProgressError.
type CoreDump struct {
	Core   int
	Done   bool
	PC     int
	Instr  string // disassembly of the current instruction ("" if done)
	Parked bool   // blocked in a callback directory
	Addr   memtypes.Addr
}

// NoProgressError is the watchdog's report: the cycle it fired, the
// window it watched, and every core's state (PC, park state) plus the
// pending-callback population.
type NoProgressError struct {
	Cycle     uint64
	Window    uint64
	ParkedOps int
	Cores     []CoreDump
}

// Is makes errors.Is(err, ErrNoProgress) match.
func (e *NoProgressError) Is(target error) bool { return target == ErrNoProgress }

func (e *NoProgressError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: no progress for %d cycles at cycle %d (%d operations parked in callback directories)\n",
		e.Window, e.Cycle, e.ParkedOps)
	b.WriteString(e.Dump())
	return strings.TrimRight(b.String(), "\n")
}

// Dump renders the per-core state table.
func (e *NoProgressError) Dump() string {
	var b strings.Builder
	for _, c := range e.Cores {
		switch {
		case c.Done:
			fmt.Fprintf(&b, "  core %2d: done\n", c.Core)
		case c.Parked:
			fmt.Fprintf(&b, "  core %2d: pc=%d  %s  [parked on %s]\n", c.Core, c.PC, c.Instr, c.Addr.Word())
		default:
			fmt.Fprintf(&b, "  core %2d: pc=%d  %s\n", c.Core, c.PC, c.Instr)
		}
	}
	return b.String()
}

// InvariantError reports a violated runtime invariant.
type InvariantError struct {
	Cycle  uint64
	Detail string
}

// Is makes errors.Is(err, ErrInvariant) match.
func (e *InvariantError) Is(target error) bool { return target == ErrInvariant }

func (e *InvariantError) Error() string {
	return fmt.Sprintf("machine: invariant violated at cycle %d: %s", e.Cycle, e.Detail)
}

// canceledError wraps ctx.Err() so a canceled run matches both
// ErrCanceled and the underlying context error.
type canceledError struct{ cause error }

func (e canceledError) Error() string { return ErrCanceled.Error() + ": " + e.cause.Error() }

func (e canceledError) Unwrap() error { return e.cause }

func (e canceledError) Is(target error) bool { return target == ErrCanceled }

// SetWatchdog arms (or with 0 disarms) the liveness watchdog: if no core
// retires an instruction or finishes for window cycles while events are
// still firing, RunContext fails with a *NoProgressError. Correct
// protocols never trip it — even under fault injection — because every
// blocked operation is eventually woken, answered by an eviction, or
// spinning (and a spinning core retires instructions).
func (m *Machine) SetWatchdog(window uint64) { m.watchdog = window }

// SetInvariantChecks enables periodic runtime invariant checking during
// RunContext (always enabled when chaos is active).
func (m *Machine) SetInvariantChecks(v bool) { m.checkInv = v }

// ChaosEngine returns the machine's fault-injection engine (nil when
// chaos is disabled).
func (m *Machine) ChaosEngine() *chaos.Engine { return m.chaos }

// wdPollMask amortizes watchdog and invariant sampling: once every
// wdPollMask+1 kernel events. Coarser than context polling because each
// sample walks per-core counters (and, for invariants, the directories).
const wdPollMask = 4095

// progress is the watchdog's monotone progress metric: total retired
// instructions plus finished cores. A spinning core keeps retiring
// instructions, so only a machine where every unfinished core is blocked
// waiting on a wake that never comes freezes the metric.
func (m *Machine) progress() uint64 {
	m.settle()
	p := uint64(m.finished)
	for _, c := range m.Cores {
		p += c.Stats().Instructions
	}
	return p
}

// noProgressError assembles the watchdog's per-core dump.
func (m *Machine) noProgressError(window uint64) *NoProgressError {
	e := &NoProgressError{Cycle: m.K.Now(), Window: window}
	for _, t := range m.vipsTiles {
		e.ParkedOps += t.Bank.Parked()
	}
	for i, c := range m.Cores {
		d := CoreDump{Core: i, Done: c.Done()}
		if !d.Done {
			d.PC = c.PC()
			d.Instr = c.Disasm()
			for _, t := range m.vipsTiles {
				if addr, ok := t.Bank.ParkedOp(memtypes.NodeID(i)); ok {
					d.Parked, d.Addr = true, addr
					break
				}
			}
		}
		e.Cores = append(e.Cores, d)
	}
	return e
}

// CheckInvariants verifies cross-layer consistency: every set callback
// bit has a parked operation behind it (no lost wakeups) and message
// conservation holds across the mesh (frees never outnumber
// allocations). With final=true — after the run completed and Quiesce
// drained the event queue — it additionally requires all parked
// operations answered, all callback bits cleared, every in-flight
// message freed, and the event queue empty.
func (m *Machine) CheckInvariants(final bool) error {
	for _, t := range m.vipsTiles {
		if err := t.Bank.CheckCallbackInvariants(final); err != nil {
			return &InvariantError{Cycle: m.K.Now(), Detail: err.Error()}
		}
	}
	if live := m.Mesh.LiveMessages(); live < 0 {
		return &InvariantError{Cycle: m.K.Now(),
			Detail: fmt.Sprintf("noc: %d more messages freed than allocated (double free)", -live)}
	}
	if final {
		if p := m.K.Pending(); p != 0 {
			return &InvariantError{Cycle: m.K.Now(),
				Detail: fmt.Sprintf("%d events still pending after quiesce", p)}
		}
		if live := m.Mesh.LiveMessages(); live != 0 {
			return &InvariantError{Cycle: m.K.Now(),
				Detail: fmt.Sprintf("noc: %d messages leaked (allocated, never freed)", live)}
		}
		if m.cyc != nil && m.allDone() {
			// Cycle-accounting conservation: every core's stack sums
			// exactly to the horizon (the slowest core's completion).
			if err := m.cyc.CheckConservation(m.cycleHorizon()); err != nil {
				return &InvariantError{Cycle: m.K.Now(), Detail: err.Error()}
			}
		}
	}
	return nil
}

// allDone reports whether every core retired its program.
func (m *Machine) allDone() bool {
	for _, c := range m.Cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Quiesce drains the in-flight events that remain after every core
// finished (acks, delayed wakes) so final invariants can be checked. It
// fails if the queue does not drain within budget extra cycles.
func (m *Machine) Quiesce(budget uint64) error {
	limit := m.K.Now() + budget
	err := m.K.Run(limit)
	if err == nil && m.parked() {
		m.K.AdvanceTo(limit) // parked spin loops never drain
		err = sim.ErrLimit
	}
	if err != nil {
		m.passTo(limit + 1)
		return &InvariantError{Cycle: m.K.Now(),
			Detail: fmt.Sprintf("event queue failed to drain within %d extra cycles", budget)}
	}
	return nil
}
