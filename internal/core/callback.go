// Package core implements the paper's primary contribution: the callback
// directory (Sections 2.2-2.5), a tiny directory cache at each LLC bank
// that services only the data races used for spin-waiting.
//
// Each entry tracks one word-granular address with a Full/Empty (F/E) bit
// and a callback (CB) bit per core, plus an All/One (A/O) bit. Each set of
// per-core bits is one uint64, bit c for core c, so a directory serves at
// most 64 cores. Entries are created only by callback reads, initialized
// to all-full/no-callbacks, and can be evicted at any time by answering
// every set callback with the current value — the directory is
// self-contained and never backed by memory.
//
// The package is a pure state machine: it decides what happens (satisfy,
// block, wake which cores) and the protocol layer (internal/vips) applies
// timing and messaging.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/memtypes"
)

// DefaultEntries is the per-bank entry count evaluated in the paper
// ("just four entries per bank... more entries without any noticeable
// change in our results").
const DefaultEntries = 4

// ReadResult is the outcome of a callback read at the directory.
type ReadResult uint8

const (
	// ReadSatisfied means the F/E state held a consumable value: the
	// read completes immediately against the LLC.
	ReadSatisfied ReadResult = iota
	// ReadBlocked means the callback bit was set: the read is held in
	// the directory until a write (or an eviction) services it.
	ReadBlocked
)

func (r ReadResult) String() string {
	if r == ReadSatisfied {
		return "satisfied"
	}
	return "blocked"
}

// WakePolicy selects which waiting core a write_CB1 services.
type WakePolicy uint8

const (
	// WakeRoundRobin is the paper's pseudo-random policy: start from a
	// rotating pointer and proceed round-robin towards higher core IDs,
	// wrapping at the highest.
	WakeRoundRobin WakePolicy = iota
	// WakeLowestID always services the lowest-numbered waiting core
	// (ablation baseline; unfair under contention).
	WakeLowestID
)

// Stats counts directory activity.
type Stats struct {
	Reads       uint64 // callback reads processed
	Satisfied   uint64 // reads completed immediately
	Blocked     uint64 // reads held in the directory
	Writes      uint64 // writes that found a matching entry
	Wakes       uint64 // callbacks serviced by writes
	Installs    uint64 // entries created
	Evictions   uint64 // valid entries replaced
	StaleWakes  uint64 // callbacks answered by evictions
	ThroughHits uint64 // ld_through consumes against an entry
}

type entry struct {
	valid bool
	addr  memtypes.Addr // word-granular tag
	fe    uint64        // Full/Empty bit per core (set = full)
	cb    uint64        // callback-pending bit per core
	one   bool          // A/O bit: true = callback-one mode
	wake  int           // rotating pointer for the round-robin policy
	lru   uint64
}

// EvictPolicy selects the replacement victim strategy (ablation knob;
// the paper does not prescribe one).
type EvictPolicy uint8

const (
	// EvictLRUNoCB (default) prefers the LRU entry without pending
	// callbacks, falling back to plain LRU: evicting waiters is legal
	// but costs stale wake-ups.
	EvictLRUNoCB EvictPolicy = iota
	// EvictLRU is plain LRU regardless of pending callbacks.
	EvictLRU
)

// Directory is one bank's callback directory.
type Directory struct {
	entries []entry
	cores   int
	// policy and evict select the wake and eviction ablation variants;
	// both are configuration fixed at machine wiring, never changed
	// once simulation starts.
	//cbvet:ephemeral configuration fixed at wiring time, never changed mid-run
	policy WakePolicy
	//cbvet:ephemeral configuration fixed at wiring time, never changed mid-run
	evict EvictPolicy
	// lineGranular tags entries by cache line instead of word
	// (ablation: the paper argues for word granularity, Section 2.2).
	//cbvet:ephemeral configuration fixed at wiring time, never changed mid-run
	lineGranular bool
	tick         uint64
	stats        Stats
}

// New builds a directory with the given entry count for a machine with
// cores cores, 1 to 64. entries <= 0 selects DefaultEntries.
func New(entries, cores int) *Directory {
	if entries <= 0 {
		entries = DefaultEntries
	}
	if cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("core: %d cores, want 1 to 64 (one bit per core)", cores))
	}
	return &Directory{entries: make([]entry, entries), cores: cores}
}

// all is the bit vector with every core's bit set.
//
//cbsim:hotpath
func (d *Directory) all() uint64 { return ^uint64(0) >> (64 - d.cores) }

// SetWakePolicy selects the write_CB1 victim policy (default round-robin).
func (d *Directory) SetWakePolicy(p WakePolicy) { d.policy = p }

// SetEvictPolicy selects the replacement policy (default EvictLRUNoCB).
func (d *Directory) SetEvictPolicy(p EvictPolicy) { d.evict = p }

// SetLineGranular switches entry tags from word to cache-line
// granularity: racy words sharing a line then share one entry, losing
// per-word independence (ablation for Section 2.2's design choice).
func (d *Directory) SetLineGranular(v bool) { d.lineGranular = v }

// Tag returns the directory tag for addr under the configured
// granularity; protocol layers must key their parked operations by it.
func (d *Directory) Tag(addr memtypes.Addr) memtypes.Addr { return d.tag(addr) }

// tag returns the directory tag for addr under the configured
// granularity.
//
//cbsim:hotpath
func (d *Directory) tag(addr memtypes.Addr) memtypes.Addr {
	if d.lineGranular {
		return addr.Line()
	}
	return addr.Word()
}

// Stats returns the directory counters.
func (d *Directory) Stats() Stats { return d.stats }

// Entries returns the capacity (for tests).
func (d *Directory) Entries() int { return len(d.entries) }

// Live returns the number of valid entries currently held — the
// directory occupancy sampled by the observability layer.
func (d *Directory) Live() int {
	n := 0
	for i := range d.entries {
		if d.entries[i].valid {
			n++
		}
	}
	return n
}

//cbsim:hotpath
func (d *Directory) find(addr memtypes.Addr) *entry {
	w := d.tag(addr)
	for i := range d.entries {
		if d.entries[i].valid && d.entries[i].addr == w {
			d.tick++
			d.entries[i].lru = d.tick
			return &d.entries[i]
		}
	}
	return nil
}

// Eviction describes a replaced entry whose waiting callbacks must be
// answered with the current value (Section 2.3.1): Waiters has bit c set
// for each waiting core c. A zero Waiters means there is no one to answer.
type Eviction struct {
	Addr    memtypes.Addr
	Waiters uint64
}

// victim selects the entry to replace: an invalid entry if any, else the
// LRU entry among those without pending callbacks, else the LRU entry
// overall (evicting waiters is legal — they are answered with the current
// value — but avoided when possible).
func (d *Directory) victim() *entry {
	var lru, lruNoCB *entry
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid {
			return e
		}
		if lru == nil || e.lru < lru.lru {
			lru = e
		}
		if e.cb == 0 && (lruNoCB == nil || e.lru < lruNoCB.lru) {
			lruNoCB = e
		}
	}
	if d.evict == EvictLRUNoCB && lruNoCB != nil {
		return lruNoCB
	}
	return lru
}

// evict1 records e's eviction and reports its waiters.
//
//cbsim:hotpath
func (d *Directory) evict1(e *entry) Eviction {
	d.stats.Evictions++
	d.stats.StaleWakes += uint64(bits.OnesCount64(e.cb))
	return Eviction{Addr: e.addr, Waiters: e.cb}
}

// install allocates an entry for addr, all F/E bits full, no callbacks,
// All mode (Sections 2.3 and 2.4.1), returning the eviction of the valid
// entry it displaced, if any, for the caller to answer.
func (d *Directory) install(addr memtypes.Addr) (*entry, Eviction) {
	var ev Eviction
	e := d.victim()
	if e.valid {
		ev = d.evict1(e)
	}
	d.tick++
	*e = entry{valid: true, addr: d.tag(addr), fe: d.all(), lru: d.tick}
	d.stats.Installs++
	return e, ev
}

// CallbackRead processes a ld_cb (or the load half of a callback RMW) by
// core on addr. Only callback reads install entries. The returned
// eviction lists the waiters on a displaced entry that the caller must
// answer with the current (stale) value.
//
//cbsim:hotpath
func (d *Directory) CallbackRead(core int, addr memtypes.Addr) (ReadResult, Eviction) {
	d.checkCore(core)
	d.stats.Reads++
	e := d.find(addr)
	var ev Eviction
	if e == nil {
		e, ev = d.install(addr)
	}
	bit := uint64(1) << core
	if e.cb&bit != 0 {
		panic(fmt.Sprintf("core: core %d issued a second callback read on %s while one is pending", core, addr.Word()))
	}
	var satisfied bool
	if e.one {
		// Callback-one: the F/E bits act in unison; a full entry
		// matches exactly one read.
		if e.fe == d.all() {
			e.fe = 0
			satisfied = true
		}
	} else if e.fe&bit != 0 {
		e.fe &^= bit
		satisfied = true
	}
	if satisfied {
		d.stats.Satisfied++
		return ReadSatisfied, ev
	}
	e.cb |= bit
	d.stats.Blocked++
	return ReadBlocked, ev
}

// ReadThrough processes a ld_through (or the plain-load half of an RMW) by
// core on addr: the non-blocking callback of Section 3.3. It consumes an
// available value (resetting F/E state) but never blocks and never
// installs an entry.
//
//cbsim:hotpath
func (d *Directory) ReadThrough(core int, addr memtypes.Addr) {
	d.checkCore(core)
	e := d.find(addr)
	if e == nil {
		return
	}
	if e.one {
		if e.fe == d.all() {
			e.fe = 0
			d.stats.ThroughHits++
		}
	} else if bit := uint64(1) << core; e.fe&bit != 0 {
		e.fe &^= bit
		d.stats.ThroughHits++
	}
}

// Write processes a racy write on addr with the given callback-service
// semantics and returns the cores to wake, bit c for core c (their CB
// bits are cleared). Writes never install entries; a write with no
// matching entry wakes nobody.
//
// Semantics per Section 2.3-2.5:
//
//   - CBAll (st_through or any ordinary write-through): resets the entry
//     to All mode, wakes every waiter, and sets the F/E bits of the cores
//     that did not have a callback to full.
//   - CBOne (st_cb1): sets One mode; wakes exactly one waiter chosen by
//     the wake policy, leaving the F/E bits undisturbed (empty); if there
//     are no waiters, sets all F/E bits to full in unison.
//   - CBZero (st_cb0): sets One mode and wakes nobody, leaving F/E state
//     to be consumed by a future release (the successful-RMW
//     optimization of Figure 6).
//
//cbsim:hotpath
func (d *Directory) Write(addr memtypes.Addr, mode memtypes.CBWrite) (woken uint64) {
	e := d.find(addr)
	if e == nil {
		return 0
	}
	d.stats.Writes++
	switch mode {
	case memtypes.CBAll:
		e.one = false
		woken, e.cb = e.cb, 0
		e.fe = d.all() &^ woken // woken cores consume this write
		d.stats.Wakes += uint64(bits.OnesCount64(woken))
		return woken

	case memtypes.CBOne:
		// The F/E bits henceforth act in unison.
		e.one = true
		victim := d.pickWake(e)
		if victim < 0 {
			// No waiters: the value is available to exactly one
			// future read.
			e.fe = d.all()
			return 0
		}
		woken = uint64(1) << victim
		e.cb &^= woken
		// F/E bits stay undisturbed (empty): the write was consumed
		// by the woken callback (Figure 4, step 9).
		e.fe = 0
		d.stats.Wakes++
		return woken

	case memtypes.CBZero:
		if !e.one {
			e.one = true
			// Unify to empty: a st_cb0 is the write of a successful
			// lock acquire, so there is nothing for readers to
			// consume until the release.
			e.fe = 0
		}
		return 0
	}
	panic(fmt.Sprintf("core: unknown CBWrite %d", mode))
}

// pickWake returns the waiter to service for a write_CB1, or -1 if none.
//
//cbsim:hotpath
func (d *Directory) pickWake(e *entry) int {
	if e.cb == 0 {
		return -1
	}
	switch d.policy {
	case WakeRoundRobin:
		// Start from the rotating pointer, proceed towards higher IDs,
		// wrap at the highest (Section 2.4).
		from := e.cb &^ (uint64(1)<<e.wake - 1)
		if from == 0 {
			from = e.cb
		}
		c := bits.TrailingZeros64(from)
		e.wake = (c + 1) % d.cores
		return c
	case WakeLowestID:
		return bits.TrailingZeros64(e.cb)
	}
	panic("core: unknown wake policy")
}

// CancelCallback clears core's pending callback on addr, if any (used
// when a protocol retracts a blocked read, e.g. at simulation teardown).
func (d *Directory) CancelCallback(core int, addr memtypes.Addr) bool {
	d.checkCore(core)
	e := d.find(addr)
	bit := uint64(1) << core
	if e == nil || e.cb&bit == 0 {
		return false
	}
	e.cb &^= bit
	return true
}

// SetWakePointer positions addr's round-robin pointer (the "any set CB
// bit" a pseudo-random pick starts from, Section 2.4). Used by tests to
// reproduce the paper's figures exactly; the default start is core 0.
func (d *Directory) SetWakePointer(addr memtypes.Addr, ptr int) {
	e := d.find(addr)
	if e == nil {
		panic(fmt.Sprintf("core: SetWakePointer on missing entry %s", addr.Word()))
	}
	e.wake = ptr % d.cores
}

// HasEntry reports whether addr currently has a directory entry.
func (d *Directory) HasEntry(addr memtypes.Addr) bool { return d.find(addr) != nil }

// ForceEvict evicts the pick-th valid entry (in slot order, modulo the
// live count), returning the eviction for the caller to answer — exactly
// as if capacity pressure had displaced it. Returns a zero Eviction when
// the directory is empty. Fault injection uses this to assert the paper's
// claim that evicting an entry — waiters included — is legal at any time.
func (d *Directory) ForceEvict(pick int) Eviction {
	n := d.Live()
	if n == 0 {
		return Eviction{}
	}
	if pick < 0 {
		pick = -pick
	}
	k := pick % n
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		e.valid = false
		return d.evict1(e)
	}
	return Eviction{}
}

// VisitEntries calls fn for every valid entry in slot order with the
// entry's tag and live state: its F/E and CB bit vectors and A/O bit.
// Unlike EntryState it does not touch the LRU clock, so invariant
// checkers can observe the directory without perturbing replacement
// decisions.
func (d *Directory) VisitEntries(fn func(addr memtypes.Addr, fe, cb uint64, one bool)) {
	for i := range d.entries {
		e := &d.entries[i]
		if e.valid {
			fn(e.addr, e.fe, e.cb, e.one)
		}
	}
}

// EntryState returns addr's F/E and CB bit vectors and A/O bit for tests
// and tracing.
func (d *Directory) EntryState(addr memtypes.Addr) (fe, cb uint64, one, ok bool) {
	e := d.find(addr)
	if e == nil {
		return 0, 0, false, false
	}
	return e.fe, e.cb, e.one, true
}

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("core: core %d out of range [0,%d)", core, d.cores))
	}
}
