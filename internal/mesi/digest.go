package mesi

import (
	"sort"

	"repro/internal/digest"

	"repro/internal/memtypes"
)

// This file folds the MESI tile's mutable state into a replay digest.
// Transient mid-transaction state is plain data and is hashed as such: a
// pending L1 miss hashes its request payload, a scheduled response its
// value, a busy directory line its ack count and pending grant, a
// deferred request its message.

// Digest folds the L1's cache array (data words and MESI line states),
// any pending miss, the monitor extension's armed state, and the
// counters.
func (l *L1) Digest(h *digest.Hash) {
	l.arr.Digest(h, func(h *digest.Hash, s *l1Line) {
		for _, word := range s.data {
			h.U64(word)
		}
		h.Int(int(s.state))
	})
	h.Bool(l.pending.req != nil)
	if l.pending.req != nil {
		l.pending.req.Digest(h)
	}
	h.Bool(l.respTo != nil)
	if l.respTo != nil {
		l.resp.Digest(h)
	}
	h.Bool(l.monitor.armed)
	if l.monitor.armed {
		h.U64(uint64(l.monitor.addr))
	}
	h.Bool(l.monitor.req != nil)
	if l.monitor.req != nil {
		l.monitor.req.Digest(h)
	}
	l.monStats.Digest(h)
	l.stats.Digest(h)
}

// Digest folds every L1Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *L1Stats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.Hits)
	h.U64(s.Misses)
	h.U64(s.Upgrades)
	h.U64(s.Invalidations)
	h.U64(s.Writebacks)
	h.U64(s.Forwards)
}

// Digest folds every MonitorStats field in declaration order (the
// struct's digest manifest, as for L1Stats above).
func (s *MonitorStats) Digest(h *digest.Hash) {
	h.U64(s.Arms)
	h.U64(s.Wakeups)
	h.U64(s.Misfire)
}

// Digest folds the directory bank: sharer/owner tracking, in-flight
// transactions (ack counts and the pending grant), the deferred requests,
// the data bank, and the counters — all map-keyed state in ascending
// address order.
func (d *Dir) Digest(h *digest.Hash) {
	lineAddrs := sortedAddrs(len(d.lines), func(f func(memtypes.Addr)) {
		for a := range d.lines { //cbvet:unordered — keys are sorted before hashing
			f(a)
		}
	})
	h.Int(len(lineAddrs))
	for _, a := range lineAddrs {
		ln := d.lines[a]
		h.U64(uint64(a))
		h.Int(ln.owner)
		h.U64(ln.sharers)
	}

	busyAddrs := sortedAddrs(len(d.busy), func(f func(memtypes.Addr)) {
		for a := range d.busy { //cbvet:unordered — keys are sorted before hashing
			f(a)
		}
	})
	h.Int(len(busyAddrs))
	for _, a := range busyAddrs {
		t := d.busy[a]
		h.U64(uint64(a))
		h.Int(t.acksPending)
		h.Bool(t.req != nil)
		if t.req != nil {
			t.req.Digest(h)
			h.Int(int(t.grant))
			h.Int(t.owner)
			h.U64(t.sharers)
		}
	}

	d.deferq.Digest(h)

	d.data.Digest(h)
	d.stats.Digest(h)
}

// Digest folds every DirStats field in declaration order (the struct's
// digest manifest, as for L1Stats above).
func (s *DirStats) Digest(h *digest.Hash) {
	h.U64(s.GetS)
	h.U64(s.GetX)
	h.U64(s.InvsSent)
	h.U64(s.Forwards)
	h.U64(s.Writebacks)
	h.U64(s.Deferred)
	h.U64(s.EGrants)
}

// sortedAddrs collects addresses from a map-range callback and returns
// them ascending, giving every digest map walk one canonical order.
func sortedAddrs(n int, each func(func(memtypes.Addr))) []memtypes.Addr {
	addrs := make([]memtypes.Addr, 0, n)
	each(func(a memtypes.Addr) { addrs = append(addrs, a) })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
