package mem

import (
	"slices"

	"repro/internal/digest"
	"repro/internal/memtypes"
)

// Digest folds the authoritative word store: the number of non-zero
// words, then each one's address and value in ascending address order.
// A zero word is folded like a word never written, so two stores
// holding the same values digest equal regardless of write history.
func (s *Store) Digest(h *digest.Hash) {
	nums := make([]uint64, 0, len(s.pages))
	for n := range s.pages { //cbvet:unordered — page numbers are sorted before hashing
		nums = append(nums, n)
	}
	slices.Sort(nums)
	words := 0
	for _, n := range nums {
		for _, v := range s.pages[n] {
			if v != 0 {
				words++
			}
		}
	}
	h.Int(words)
	for _, n := range nums {
		for i, v := range s.pages[n] {
			if v != 0 {
				h.U64(n*memtypes.PageBytes + uint64(i)*memtypes.WordBytes)
				h.U64(v)
			}
		}
	}
}

// Digest folds the bank's residency array and counters. The latency
// parameters are configuration, not state, and are excluded.
func (b *Bank) Digest(h *digest.Hash) {
	b.arr.Digest(h, nil)
	b.stats.Digest(h)
}

// Digest folds every BankStats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *BankStats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.DataAccesses)
	h.U64(s.SyncAccesses)
	h.U64(s.Misses)
	h.U64(s.MemCycles)
	for _, v := range s.SyncByKind {
		h.U64(v)
	}
}
