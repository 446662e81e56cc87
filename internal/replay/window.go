package replay

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// This file is the windowed re-executor: replaying any [from,to) window
// of a recording with trace sinks attached, on a machine rebuilt from
// cycle 0.

// Replay re-executes the window [from,to) of the recording and returns
// the machine's Stats at the window's end boundary. It builds a fresh
// machine, advances it silently to from, attaches the given trace sinks
// (none may be given) and re-fires every event with cycle in [from,to).
// Digest marks crossed on the way — silent prefix and traced window
// alike — are verified against the recording; a mismatch means the
// source recipe is not deterministic and fails loudly rather than
// returning a fabricated history. ctx, when non-nil, cancels the
// re-execution between kernel events.
//
// Replay is safe for concurrent use: each call has its own machine.
func (r *Recording) Replay(ctx context.Context, from, to uint64, sinks ...trace.Sink) (machine.Stats, error) {
	if to > r.End() {
		to = r.End()
	}
	if from >= to {
		return machine.Stats{}, fmt.Errorf("replay: empty window [%d,%d) (run is [0,%d))", from, to, r.End())
	}
	m, err := r.src.Build()
	if err != nil {
		return machine.Stats{}, fmt.Errorf("replay: rebuild %s: %w", r.src.Label, err)
	}
	if err := r.advance(ctx, m, 0, from); err != nil {
		return machine.Stats{}, err
	}
	for _, s := range sinks {
		m.AttachTrace(s)
	}
	if err := r.advance(ctx, m, from, to); err != nil {
		return machine.Stats{}, err
	}
	return m.Stats(), nil
}

// advance runs m forward from boundary at to the target boundary,
// pausing at (and verifying) every digest mark on the way. When the
// machine finishes first, its digest must be the recording's final one.
func (r *Recording) advance(ctx context.Context, m *machine.Machine, at, target uint64) error {
	for _, mk := range r.marks {
		if mk.Cycle <= at || mk.Cycle > target {
			continue
		}
		done, err := m.RunToCycle(ctx, mk.Cycle)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", r.src.Label, err)
		}
		if done {
			return fmt.Errorf("replay: %s finished at cycle %d before mark %d: source is not the recorded run",
				r.src.Label, m.K.Now(), mk.Cycle)
		}
		at = mk.Cycle
		if got := m.Digest(r.scope); got != mk.Digest {
			return fmt.Errorf("replay: %s diverged from recording at cycle %d: digest %#x, recorded %#x (non-deterministic source?)",
				r.src.Label, mk.Cycle, got, mk.Digest)
		}
	}
	if target > at {
		done, err := m.RunToCycle(ctx, target)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", r.src.Label, err)
		}
		if done {
			if got := m.Digest(r.scope); got != r.finalDigest {
				return fmt.Errorf("replay: %s diverged from recording at its end: digest %#x, recorded %#x (non-deterministic source?)",
					r.src.Label, got, r.finalDigest)
			}
		}
	}
	return nil
}
