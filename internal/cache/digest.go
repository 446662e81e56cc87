package cache

import (
	"math/bits"

	"repro/internal/digest"
)

// Digest folds the array's mutable state — every valid line in physical
// (set, way) order plus the LRU clock and access counters — into h. The
// per-line protocol payload P, data words included, is opaque to the
// array, so the caller supplies state to fold it (nil skips it, for
// payload-free arrays like the LLC banks).
//
// The LRU tick and per-line lru stamps are included deliberately: they
// decide future victims, so two arrays that agree on digest agree on all
// future replacement behavior, not just current contents.
func (a *Array[P]) Digest(h *digest.Hash, state func(*digest.Hash, *P)) {
	h.U64(a.tick)
	h.U64(a.Accesses)
	h.U64(a.Hits)
	// Walk the occupancy masks rather than the sets: most sets of an LLC
	// bank are empty or unallocated, and this scan runs on every replay
	// digest mark.
	for s, m := range a.occ {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			ln := &a.sets[s][w]
			h.Int(s)
			h.Int(w)
			h.U64(uint64(ln.Addr))
			h.U64(ln.lru)
			if state != nil {
				state(h, &ln.State)
			}
		}
	}
}
