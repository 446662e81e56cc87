// Package cache provides the generic set-associative storage used by the
// L1 caches and LLC banks of every protocol: a tag array with true-LRU
// replacement and per-line protocol payload.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memtypes"
)

// Line is one cache line: tag state plus a protocol-defined payload P.
// Data values live in the global store (internal/mem); a controller
// that keeps a copy of the line's words carries them in P.
type Line[P any] struct {
	Valid bool
	Addr  memtypes.Addr // line-aligned address (only meaningful when Valid)
	State P

	lru uint64
}

// Array is a set-associative cache tag array with true-LRU
// replacement. P is the per-line protocol state (MESI state, VIPS dirty
// mask, ...).
type Array[P any] struct {
	sets    [][]Line[P]
	assoc   int
	setBits int
	tick    uint64

	// occ[s] is the set's valid-way bitmask (bit w = way w holds a valid
	// line). It exists for the scans — Digest, CountValid — which would
	// otherwise touch every way of every set: an LLC bank keeps 4096
	// mostly-invalid line slots, and a replay digest scans every bank of
	// the machine each mark. The mask lets those skip empty sets without
	// pulling the line backing into cache. Maintained by
	// Allocate/Invalidate and re-synced by ForEach (whose visitor may
	// clear Valid).
	occ []uint64

	// Accesses counts Lookup calls; Hits counts those that hit.
	Accesses uint64
	Hits     uint64
}

// NewArray builds an array of totalBytes capacity with the given
// associativity and 64-byte lines. totalBytes must be a power-of-two
// multiple of assoc*LineBytes.
func NewArray[P any](totalBytes, assoc int) *Array[P] {
	if totalBytes <= 0 || assoc <= 0 {
		panic("cache: size and associativity must be positive")
	}
	if assoc > 64 {
		panic(fmt.Sprintf("cache: associativity %d exceeds the 64-way occupancy mask", assoc))
	}
	lines := totalBytes / memtypes.LineBytes
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by assoc %d", lines, assoc))
	}
	numSets := lines / assoc
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: number of sets %d must be a power of two", numSets))
	}
	sets := make([][]Line[P], numSets)
	backing := make([]Line[P], lines)
	for i := range sets {
		sets[i], backing = backing[:assoc:assoc], backing[assoc:]
	}
	return &Array[P]{
		sets:    sets,
		assoc:   assoc,
		setBits: bits.TrailingZeros(uint(numSets)),
		occ:     make([]uint64, numSets),
	}
}

// Sets returns the number of sets.
func (a *Array[P]) Sets() int { return len(a.sets) }

// Assoc returns the associativity.
func (a *Array[P]) Assoc() int { return a.assoc }

func (a *Array[P]) setIndex(addr memtypes.Addr) int {
	return int(uint64(addr)/memtypes.LineBytes) & (len(a.sets) - 1)
}

// Lookup finds the line holding addr, touching LRU state on a hit. It
// returns nil on a miss.
//
//cbsim:hotpath
func (a *Array[P]) Lookup(addr memtypes.Addr) *Line[P] {
	a.Accesses++
	line := addr.Line()
	set := a.sets[a.setIndex(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == line {
			a.tick++
			set[i].lru = a.tick
			a.Hits++
			return &set[i]
		}
	}
	return nil
}

// CreditHits accounts n Lookup hits of addr's resident line at once:
// the access and hit counters, the LRU clock and the line's stamp end
// exactly as after n consecutive Lookup calls.
//
//cbsim:hotpath
func (a *Array[P]) CreditHits(addr memtypes.Addr, n uint64) {
	line := a.Peek(addr)
	if line == nil {
		panic(fmt.Sprintf("cache: crediting hits of absent line %s", addr.Line()))
	}
	a.Accesses += n
	a.Hits += n
	a.tick += n
	line.lru = a.tick
}

// Peek finds the line holding addr without touching LRU or access
// counters. It returns nil on a miss.
//
//cbsim:hotpath
func (a *Array[P]) Peek(addr memtypes.Addr) *Line[P] {
	line := addr.Line()
	set := a.sets[a.setIndex(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == line {
			return &set[i]
		}
	}
	return nil
}

// victimWay returns the (set, way) Allocate would replace for addr: an
// invalid way if one exists, otherwise the LRU way.
func (a *Array[P]) victimWay(addr memtypes.Addr) (int, int) {
	s := a.setIndex(addr)
	set := a.sets[s]
	victim := 0
	for i := range set {
		if !set[i].Valid {
			return s, i
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return s, victim
}

// Victim returns the line that Allocate would replace for addr: an invalid
// way if one exists, otherwise the LRU way. The returned line may be valid
// (the caller must write it back or invalidate it before reuse).
//
//cbsim:hotpath
func (a *Array[P]) Victim(addr memtypes.Addr) *Line[P] {
	s, w := a.victimWay(addr)
	return &a.sets[s][w]
}

// Allocate installs addr's line into the array, replacing the victim way
// (a valid victim is dropped silently; see Victim), and returns the new
// line. Its State is zeroed; the caller fills it.
func (a *Array[P]) Allocate(addr memtypes.Addr) *Line[P] {
	if l := a.Peek(addr); l != nil {
		panic(fmt.Sprintf("cache: allocating already-present line %s", addr.Line()))
	}
	s, w := a.victimWay(addr)
	v := &a.sets[s][w]
	a.tick++
	*v = Line[P]{Valid: true, Addr: addr.Line(), lru: a.tick}
	a.occ[s] |= 1 << w
	return v
}

// Invalidate drops addr's line if present and reports whether it did.
func (a *Array[P]) Invalidate(addr memtypes.Addr) bool {
	line := addr.Line()
	s := a.setIndex(addr)
	set := a.sets[s]
	for w := range set {
		if set[w].Valid && set[w].Addr == line {
			set[w] = Line[P]{}
			a.occ[s] &^= 1 << w
			return true
		}
	}
	return false
}

// ForEach visits every valid line. The visitor may mutate the line's
// State; setting Valid false invalidates it.
func (a *Array[P]) ForEach(fn func(*Line[P])) {
	for s, m := range a.occ {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(&a.sets[s][w])
			if !a.sets[s][w].Valid {
				a.occ[s] &^= 1 << w
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array[P]) CountValid() int {
	n := 0
	for _, m := range a.occ {
		n += bits.OnesCount64(m)
	}
	return n
}
