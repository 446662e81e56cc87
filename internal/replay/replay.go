// Package replay is the time-travel debugging layer: checkpointed
// recordings of deterministic runs, windowed re-execution with trace
// hooks re-attached, and first-divergence bisection between two
// configurations.
//
// The subsystem leans entirely on the simulator's determinism contract:
// a machine built the same way and run the same way fires the identical
// event sequence, so "state at cycle C" is a pure function of the build
// recipe. A Recording captures that recipe (the Source), a digest mark
// every interval cycles (the evidence), and the run's Stats. Re-running
// any window is then: build a fresh machine, advance silently to the
// window start — verifying the digest marks crossed on the way — attach
// the requested trace sinks, and run to the window end. A replay thus
// costs at most one plain run of the source, and a Recording, once
// made, is never modified.
//
// Recording, replay and bisection advance machines only through
// machine.RunToCycle, the machine's one run loop: the caller's context,
// the machine's liveness watchdog and its invariant checks cover every
// cycle they simulate.
package replay

import (
	"context"
	"fmt"

	"repro/internal/machine"
)

const (
	// DefaultInterval is the checkpoint/digest-mark cadence K in
	// cycles, used when an interval of 0 is given. Marks cost one
	// full-machine digest each — the dominant recording cost, since the
	// simulator sweeps thousands of cycles in the time one digest
	// takes — so the default trades recording overhead (benchgate
	// bounds it at 2.5x a plain run) against how far a bisection must
	// re-execute blind. Re-executing 16K cycles costs microseconds;
	// digesting every 4K cycles costs half the recording.
	DefaultInterval = 16384
	// DefaultLimit is the cycle budget when Source.Limit is zero,
	// matching the experiments layer's run limit.
	DefaultLimit = 200_000_000
)

// Source describes how to (re)build one deterministic run: a factory
// returning a freshly built machine with its programs loaded, paused at
// cycle zero. Build must be a pure recipe — every machine it returns
// must behave byte-identically — which is exactly the determinism the
// simulator already guarantees for a fixed configuration, program set,
// and seed.
type Source struct {
	// Label names the run in reports and errors.
	Label string
	// Build constructs the machine. Called once by Record, once per
	// Replay (concurrent replays call it concurrently), and at most
	// twice per side by Bisect.
	Build func() (*machine.Machine, error)
	// Limit is the cycle budget (0 = DefaultLimit). A recording whose
	// run does not complete within the budget fails.
	Limit uint64
}

// Mark is one digest checkpoint: the machine's canonical state digest
// at an exact cycle boundary (all events below Cycle fired, none at or
// above).
type Mark struct {
	Cycle  uint64 `json:"cycle"`
	Digest uint64 `json:"digest"`
	// Executed counts the events the simulated machine fired so far
	// (machine.Machine.Executed), those the kernel passed for parked spin
	// loops included.
	Executed uint64 `json:"executed"`
}

// Recording is a completed, replayable run: the source recipe, the
// digest marks and the final Stats. It is immutable, so any number of
// goroutines may replay it at once.
type Recording struct {
	src      Source
	interval uint64
	// scope is the digest scope of the marks: ScopeFull, unless Bisect
	// compares configurations whose full digests are incommensurable.
	scope machine.DigestScope
	cfg   machine.Config

	marks []Mark
	// endCycle is the cycle of the last fired event (Stats.Cycles);
	// every event of the run lies in [0, endCycle+1).
	endCycle uint64
	// finalDigest is the machine digest at the exact pause point where
	// the run completed (before Quiesce).
	finalDigest uint64
	stats       machine.Stats
}

// Record runs the source to completion, digesting at every interval
// boundary (0 means DefaultInterval). ctx, when non-nil, cancels the
// run between kernel events; the error then matches ctx.Err().
func Record(ctx context.Context, src Source, interval uint64) (*Recording, error) {
	m, err := src.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: build %s: %w", src.Label, err)
	}
	return record(ctx, m, src, interval, machine.ScopeFull)
}

// record is Record with the initial machine already built and the
// digest scope chosen (Bisect probes configurations before recording).
func record(ctx context.Context, m *machine.Machine, src Source, interval uint64, scope machine.DigestScope) (*Recording, error) {
	if interval == 0 {
		interval = DefaultInterval
	}
	limit := src.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	r := &Recording{src: src, interval: interval, scope: scope, cfg: m.Config()}
	r.marks = append(r.marks, Mark{Cycle: 0, Digest: m.Digest(scope)})

	for next := interval; ; next += interval {
		done, err := m.RunToCycle(ctx, next)
		if err != nil {
			return nil, fmt.Errorf("replay: record %s: %w", src.Label, err)
		}
		if done {
			break
		}
		r.marks = append(r.marks, Mark{Cycle: next, Digest: m.Digest(scope), Executed: m.Executed()})
		if next >= limit {
			return nil, fmt.Errorf("replay: record %s: no completion within %d cycles", src.Label, limit)
		}
	}

	// Stats are captured at the exact pause point where the last core
	// finished — the same point Run stops — so a recording's Stats are
	// byte-identical to an ordinary run's.
	r.stats = m.Stats()
	r.endCycle = r.stats.Cycles
	r.finalDigest = m.Digest(scope)

	// Drain check: the leftover events after the last core finished
	// must drain within the watchdog window, or the recorded run left
	// the machine wedged.
	if err := m.Quiesce(machine.DefaultWatchdogWindow); err != nil {
		return nil, fmt.Errorf("replay: quiesce %s: %w", src.Label, err)
	}
	return r, nil
}

// Label returns the source label.
func (r *Recording) Label() string { return r.src.Label }

// Config returns the recorded machine's effective configuration.
func (r *Recording) Config() machine.Config { return r.cfg }

// Stats returns the recorded run's Stats, byte-identical to an
// ordinary (non-recorded) run of the same source.
func (r *Recording) Stats() machine.Stats { return r.stats }

// End returns the exclusive end boundary: every event of the recorded
// run lies in the window [0, End).
func (r *Recording) End() uint64 { return r.endCycle + 1 }

// Marks returns the digest marks (ascending cycle, mark 0 at cycle 0).
func (r *Recording) Marks() []Mark { return r.marks }

// Interval returns the effective mark cadence K.
func (r *Recording) Interval() uint64 { return r.interval }
