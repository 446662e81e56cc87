package cpu

import (
	"repro/internal/digest"
)

// Digest folds the core's architectural and micro-architectural state:
// registers, program counter, back-off ladder position, the open
// synchronization-phase stack, run flags, the memory operation in flight
// (or the last one issued), the spin-loop detector and park record, and
// counters. The program itself is excluded — it is immutable input, and
// the machine configurations a bisection compares already run the same
// programs (DigestCompatible checks the config; the program is the
// caller's responsibility, exactly as for Snapshot/Restore).
func (c *Core) Digest(h *digest.Hash) {
	for _, r := range c.regs {
		h.U64(r)
	}
	h.Int(c.pc)
	h.Int(c.backoffCount)
	h.Int(len(c.syncStack))
	for _, f := range c.syncStack {
		h.Int(int(f.kind))
		h.U64(f.start)
	}
	h.Bool(c.started)
	h.Bool(c.done)
	c.req.Digest(h)
	h.Int(int(c.memRd))
	h.Bool(c.memLoad)
	h.U64(c.issuedAt)
	if c.seenSpins {
		// Whether and when a seen loop parks cannot show in a machine
		// digest, which wakes the loop and counts its passed events, so
		// the detector folds as the idle one.
		var idle spinLoop
		h.Int(-1)
		idle.digest(h)
	} else {
		h.Int(c.spinPC)
		c.spin.digest(h)
	}
	c.stats.Digest(h)
}

// digest folds the spin-loop detector and, while parked, the park
// record: both decide when the core schedules its next event.
func (s *spinLoop) digest(h *digest.Hash) {
	h.U64(s.instr)
	h.Bool(s.seen)
	if s.seen {
		for _, r := range s.regs {
			h.U64(r)
		}
	}
	h.Bool(s.parked)
	if s.parked {
		h.U64(s.ghost.Seq())
		h.U64(s.ghost.Passed())
		h.U64(s.settled)
		h.U64(s.start)
		h.U64(s.exec())
		h.U64(s.lat())
		h.U64(s.instrs)
	}
}

// Digest folds every Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *Stats) Digest(h *digest.Hash) {
	h.U64(s.Instructions)
	h.U64(s.MemOps)
	h.U64(s.ComputeCycles)
	h.U64(s.BackoffCycles)
	h.U64(s.MemStallCycles)
	h.U64(s.DoneAt)
	for _, v := range s.SyncCycles {
		h.U64(v)
	}
	for _, v := range s.SyncEntries {
		h.U64(v)
	}
	h.U64(s.StaleResponses)
}
