package machine

import "context"

// This file is the machine half of the replay subsystem's execution
// primitive: advancing a machine to an exact cycle boundary and pausing
// there without perturbing the event sequence. A run chopped into
// boundary segments fires the identical events — and accumulates
// byte-identical Stats — as one uninterrupted Run; the boundaries are
// merely the places where checkpoints, state digests, and trace sinks
// may be attached or compared. Pinned by TestRunToCycleByteIdentity.

// RunToCycle advances the simulation to the exact boundary of cycle
// target: every event scheduled before target fires, none at or after
// it does. It returns done=true when all loaded cores finished —
// stopping at the same point Run would, possibly before the boundary.
// It runs the same loop as RunContext, so ctx, the watchdog and the
// invariant checks stop it with the same errors; a drained event queue
// with unfinished cores is a deadlock and fails with a diagnosis.
//
// Unlike Run, the clock is not bumped to the boundary on pause: Now()
// reports the last fired event's cycle. Repeated calls with increasing
// targets chunk a run into windows; Stats may be read at any pause.
func (m *Machine) RunToCycle(ctx context.Context, target uint64) (done bool, err error) {
	done, err = m.advance(ctx, target)
	if !done && err == nil {
		m.passTo(target) // parked spin loops stay parked across the pause
	}
	return done, err
}

// NextEventCycle reports the cycle of the earliest pending event, or
// false when the queue is empty. The bisection fine scan uses it to jump
// both machines to their common next boundary instead of probing every
// empty cycle.
func (m *Machine) NextEventCycle() (uint64, bool) {
	return m.K.NextEventTime()
}

// DetachTrace removes every attached sink, cycle accounting included,
// returning the machine to its unobserved (and observer-overhead-free)
// state. Parked spin loops settle first, so the detached sinks have
// seen every event the machine fired.
func (m *Machine) DetachTrace() {
	m.cyc = nil
	m.install(nil)
}
