package core

import (
	"repro/internal/digest"
)

// Digest folds the callback directory's mutable state: every valid
// entry in slot order (tag, Full/Empty and callback bit vectors one bool
// per core, A/O bit, round-robin pointer, LRU stamp), the LRU clock, and the
// counters. Policy knobs (wake/evict policy, granularity) are
// configuration and excluded.
func (d *Directory) Digest(h *digest.Hash) {
	h.U64(d.tick)
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid {
			continue
		}
		h.Int(i)
		h.U64(uint64(e.addr))
		for c := 0; c < d.cores; c++ {
			h.Bool(e.fe>>c&1 != 0)
		}
		for c := 0; c < d.cores; c++ {
			h.Bool(e.cb>>c&1 != 0)
		}
		h.Bool(e.one)
		h.Int(e.wake)
		h.U64(e.lru)
	}
	d.stats.Digest(h)
}

// Digest folds every Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *Stats) Digest(h *digest.Hash) {
	h.U64(s.Reads)
	h.U64(s.Satisfied)
	h.U64(s.Blocked)
	h.U64(s.Writes)
	h.U64(s.Wakes)
	h.U64(s.Installs)
	h.U64(s.Evictions)
	h.U64(s.StaleWakes)
	h.U64(s.ThroughHits)
}
