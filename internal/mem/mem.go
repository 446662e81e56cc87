// Package mem provides the authoritative backing store for the simulated
// address space and the LLC-bank data-latency model shared by all
// protocols.
//
// Data values live in a single global Store updated at the point a write
// is committed (write-through arrival at the LLC, or the write of an
// exclusive MESI copy). Private caches keep per-line copies filled at
// fetch time, so stale reads — MESI spinning on an S copy, VIPS reading
// shared data between self-invalidations — behave exactly as in hardware.
// Programs are data-race-free by construction (all races go through the
// racy operations that meet at the LLC), which is the contract the
// SC-for-DRF protocols require anyway.
package mem

import (
	"repro/internal/cache"
	"repro/internal/memtypes"
)

// Store is the authoritative word-granular value store. Words live in
// pages of pageWords, one per memtypes.PageBytes of address space, in a
// map keyed by page number; a page is allocated by the first non-zero
// store into it, and every word outside the pages reads zero. A run's
// accesses cluster on a few pages, so the store memoizes the last page
// it looked up, and a page not yet allocated as zeroPage.
type Store struct {
	pages map[uint64]*page
	//cbvet:ephemeral memo of the page numbered lastNum, which pages holds or zeroPage stands for; the digest folds pages
	last *page
	//cbvet:ephemeral number of the memoized page; the digest folds pages
	lastNum uint64
}

const pageWords = memtypes.PageBytes / memtypes.WordBytes

type page [pageWords]uint64

// zeroPage stands for every page not yet allocated. It is only read.
var zeroPage page

// NewStore returns an empty store; all addresses read as zero.
func NewStore() *Store {
	return &Store{pages: make(map[uint64]*page), last: &zeroPage, lastNum: pageOf(0)}
}

func pageOf(a memtypes.Addr) uint64 { return uint64(a) / memtypes.PageBytes }

// wordOf returns the index of a's word within its page.
func wordOf(a memtypes.Addr) int { return int(a%memtypes.PageBytes) / memtypes.WordBytes }

// find returns the page holding a, or zeroPage when none is allocated.
//
//cbsim:hotpath
func (s *Store) find(a memtypes.Addr) *page {
	n := pageOf(a)
	if n == s.lastNum {
		return s.last
	}
	p := s.pages[n]
	if p == nil {
		p = &zeroPage
	}
	s.last, s.lastNum = p, n
	return p
}

// grow allocates the page holding a, which find returned as zeroPage.
func (s *Store) grow(a memtypes.Addr) *page {
	p, n := new(page), pageOf(a)
	s.pages[n] = p
	s.last, s.lastNum = p, n
	return p
}

// Load returns the current value of the word holding a.
//
//cbsim:hotpath
func (s *Store) Load(a memtypes.Addr) uint64 { return s.find(a)[wordOf(a)] }

// StoreWord sets the word holding a to v.
//
//cbsim:hotpath
func (s *Store) StoreWord(a memtypes.Addr, v uint64) {
	p := s.find(a)
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = s.grow(a)
	}
	p[wordOf(a)] = v
}

// LoadLine returns the full line holding a. A line never straddles a
// page.
//
//cbsim:hotpath
func (s *Store) LoadLine(a memtypes.Addr) memtypes.Line {
	i := wordOf(a.Line())
	return memtypes.Line(s.find(a)[i : i+memtypes.WordsPerLine])
}

// StoreLineWords writes the words of l selected by mask into a's line.
//
//cbsim:hotpath
func (s *Store) StoreLineWords(a memtypes.Addr, l memtypes.Line, mask [memtypes.WordsPerLine]bool) {
	p := s.find(a)
	base := wordOf(a.Line())
	for i, on := range mask {
		if !on {
			continue
		}
		if p == &zeroPage {
			if l[i] == 0 {
				continue
			}
			p = s.grow(a)
		}
		p[base+i] = l[i]
	}
}

// Timing defaults from Table 2 of the paper.
const (
	DefaultTagLatency  = 6   // LLC tag access
	DefaultDataLatency = 12  // LLC tag+data access
	DefaultMemLatency  = 160 // main memory access
	DefaultL1Latency   = 1   // L1 access
)

// BankStats counts LLC bank activity for performance and energy
// accounting.
type BankStats struct {
	Accesses     uint64 // tag or tag+data accesses
	DataAccesses uint64 // accesses that touched the data array
	SyncAccesses uint64 // accesses caused by synchronization operations
	Misses       uint64 // accesses that went to memory
	MemCycles    uint64 // cycles added by memory misses

	// SyncByKind splits SyncAccesses by isa.SyncKind, for the
	// per-algorithm attribution of Figures 1 and 20.
	SyncByKind [memtypes.NumSyncKinds]uint64
}

// Bank models the data-presence and latency of one LLC bank (256KB,
// 16-way per Table 2). Values come from the global Store; the bank's
// cache array only determines whether an access pays the memory latency.
//
// A line's bank is its line index mod the core count and its set the
// line index mod 256, so a bank reaches only 256/gcd(cores, 256) of its
// sets: an effective 64 lines at 64 cores, 256 at 16 and 1,024 at 4, not
// 4,096. No standard cell at 4, 16 or 64 cores fills an LLC set, so no
// result depends on it yet.
type Bank struct {
	arr *cache.Array[struct{}]

	TagLatency  uint64
	DataLatency uint64
	MemLatency  uint64

	stats BankStats
}

// NewBank builds a bank with the paper's default geometry and timing.
func NewBank() *Bank {
	return &Bank{
		arr:         cache.NewArray[struct{}](256*1024, 16),
		TagLatency:  DefaultTagLatency,
		DataLatency: DefaultDataLatency,
		MemLatency:  DefaultMemLatency,
	}
}

// Stats returns the bank's counters.
func (b *Bank) Stats() BankStats { return b.stats }

// Access models one access to the bank for addr and returns its latency.
// needData selects tag+data (12 cycles) vs tag-only (6); a nonzero
// syncKind attributes the access to that synchronization phase. A miss
// pays the memory latency and allocates the line (evictions are silent:
// data is backed by the global Store).
func (b *Bank) Access(addr memtypes.Addr, needData bool, syncKind uint8) uint64 {
	b.stats.Accesses++
	if syncKind != 0 {
		b.stats.SyncAccesses++
		b.stats.SyncByKind[syncKind%memtypes.NumSyncKinds]++
	}
	lat := b.TagLatency
	if needData {
		lat = b.DataLatency
		b.stats.DataAccesses++
	}
	if b.arr.Lookup(addr) == nil {
		b.stats.Misses++
		b.stats.MemCycles += b.MemLatency
		lat += b.MemLatency
		b.arr.Allocate(addr)
	}
	return lat
}

// CreditHits accounts n accesses of addr's resident line at once: the
// counters, the LRU clock and the line's stamp end exactly as after n
// Access calls that hit.
func (b *Bank) CreditHits(addr memtypes.Addr, n uint64, needData bool, syncKind uint8) {
	b.stats.Accesses += n
	if syncKind != 0 {
		b.stats.SyncAccesses += n
		b.stats.SyncByKind[syncKind%memtypes.NumSyncKinds] += n
	}
	if needData {
		b.stats.DataAccesses += n
	}
	b.arr.CreditHits(addr, n)
}

// Present reports whether addr's line is resident.
func (b *Bank) Present(addr memtypes.Addr) bool { return b.arr.Peek(addr) != nil }
