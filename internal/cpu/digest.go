package cpu

import (
	"repro/internal/digest"
)

// Digest folds the core's architectural and micro-architectural state:
// registers, program counter, back-off ladder position, the open
// synchronization-phase stack, run flags, the memory operation in flight
// (or the last one issued), and counters. The program
// itself is excluded — it is immutable input, and the machine
// configurations a bisection compares already run the same programs
// (DigestCompatible checks the config; the program is the caller's
// responsibility, exactly as for Snapshot/Restore).
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
	c.stats.Digest(h)
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
