package replay

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/trace"
)

// This file is the windowed re-executor: replaying any [from,to) window
// of a recording with trace sinks attached, without re-simulating the
// prefix when a parked cursor already covers it.

// Replay re-executes the window [from,to) of the recording and returns
// the machine's Stats at the window's end boundary. Every event with
// cycle in [from,to) is re-fired with the given trace sinks attached
// (none may be given: a silent replay advances the cursor ring and
// verifies digests). Digest marks crossed during the re-execution —
// silent prefix and traced window alike — are verified against the
// recording; a mismatch means the source recipe is not deterministic
// and fails loudly rather than returning a fabricated history.
//
// Replay is safe for concurrent use; cursor bookkeeping is serialized.
func (r *Recording) Replay(from, to uint64, sinks ...trace.Sink) (machine.Stats, error) {
	return r.ReplayContext(r.opts.Context, from, to, sinks...)
}

// ReplayContext is Replay with an explicit cancellation context for this
// one re-execution — the daemon threads each HTTP request's context here
// (the recording's own Options.Context belongs to the job that recorded
// it and is released when that job completes).
func (r *Recording) ReplayContext(ctx context.Context, from, to uint64, sinks ...trace.Sink) (machine.Stats, error) {
	if to > r.End() {
		to = r.End()
	}
	if from >= to {
		return machine.Stats{}, fmt.Errorf("replay: empty window [%d,%d) (run is [0,%d))", from, to, r.End())
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	cur, err := r.anchor(from)
	if err != nil {
		return machine.Stats{}, err
	}
	// Silent advance to the window start, verifying every crossed mark.
	if err := r.advance(ctx, cur, from); err != nil {
		return machine.Stats{}, err
	}

	for _, s := range sinks {
		cur.m.AttachTrace(s)
	}
	err = r.advance(ctx, cur, to)
	if len(sinks) > 0 {
		cur.m.DetachTrace()
	}
	if err != nil {
		return machine.Stats{}, err
	}
	stats := cur.m.Stats()
	r.park(cur)
	return stats, nil
}

// anchor returns a cursor at the highest boundary <= from: a parked
// cursor when one covers the prefix, otherwise a fresh build at cycle
// zero. The chosen parked cursor is removed from the ring while in use.
func (r *Recording) anchor(from uint64) (*cursor, error) {
	best := -1
	for i, c := range r.cursors {
		if c.cycle <= from && (best < 0 || c.cycle > r.cursors[best].cycle) {
			best = i
		}
	}
	if best >= 0 {
		c := r.cursors[best]
		r.cursors = append(r.cursors[:best], r.cursors[best+1:]...)
		return c, nil
	}
	m, err := r.src.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: rebuild %s: %w", r.src.Label, err)
	}
	return &cursor{m: m}, nil
}

// advance runs the cursor's machine forward to the target boundary,
// pausing at (and verifying) every digest mark on the way. The cursor
// never advances past the recording's natural stop: when the machine
// finishes, the cursor cycle is pinned to the end boundary.
func (r *Recording) advance(ctx context.Context, c *cursor, target uint64) error {
	for _, mk := range r.marks {
		if mk.Cycle <= c.cycle || mk.Cycle > target {
			continue
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("replay: %s: %w", r.src.Label, ctx.Err())
		}
		done, err := c.m.RunToCycle(mk.Cycle)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", r.src.Label, err)
		}
		if done {
			return fmt.Errorf("replay: %s finished at cycle %d before mark %d: source is not the recorded run",
				r.src.Label, c.m.K.Now(), mk.Cycle)
		}
		c.cycle = mk.Cycle
		if got := c.m.Digest(r.opts.Scope); got != mk.Digest {
			return fmt.Errorf("replay: %s diverged from recording at cycle %d: digest %#x, recorded %#x (non-deterministic source?)",
				r.src.Label, mk.Cycle, got, mk.Digest)
		}
	}
	if target > c.cycle {
		done, err := c.m.RunToCycle(target)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", r.src.Label, err)
		}
		c.cycle = target
		if done {
			c.cycle = r.End()
			if got := c.m.Digest(r.opts.Scope); got != r.finalDigest {
				return fmt.Errorf("replay: %s diverged from recording at its end: digest %#x, recorded %#x (non-deterministic source?)",
					r.src.Label, got, r.finalDigest)
			}
		}
	}
	return nil
}

// park returns a cursor to the ring, evicting the least recently used
// beyond the bound. A finished cursor is useless as an anchor (every
// window starts below End) and is dropped.
func (r *Recording) park(c *cursor) {
	if c.cycle >= r.End() {
		return
	}
	r.useClock++
	c.used = r.useClock
	r.cursors = append(r.cursors, c)
	for len(r.cursors) > r.opts.Cursors {
		lru := 0
		for i, o := range r.cursors {
			if o.used < r.cursors[lru].used {
				lru = i
			}
		}
		r.cursors = append(r.cursors[:lru], r.cursors[lru+1:]...)
	}
}

// Cursors reports the parked cursor boundaries, most recently used
// last (tests and the service's observability surface).
func (r *Recording) Cursors() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, 0, len(r.cursors))
	for _, c := range r.cursors {
		out = append(out, c.cycle)
	}
	return out
}
