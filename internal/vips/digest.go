package vips

import (
	"sort"

	"repro/internal/digest"

	"repro/internal/memtypes"
)

// This file folds the VIPS tile's mutable state into a replay digest.
// As in the MESI digest, transient state is plain data and is hashed as
// such: a pending L1 operation hashes its request and phase flags, a
// scheduled response its value, a parked callback read or a deferred
// operation its full message.

// Digest folds the L1's cache array (data words, dirty masks, private
// bits), any pending operation, a scheduled response, the outstanding
// write-through count, and the counters.
func (l *L1) Digest(h *digest.Hash) {
	l.arr.Digest(h, func(h *digest.Hash, s *l1Line) {
		for _, word := range s.data {
			h.U64(word)
		}
		for _, d := range s.dirty {
			h.Bool(d)
		}
		h.Bool(s.private)
	})
	h.Bool(l.pending.req != nil)
	if l.pending.req != nil {
		l.pending.req.Digest(h)
		h.Bool(l.pending.fence)
		h.Bool(l.pending.invlAfter)
	}
	h.Bool(l.respTo != nil)
	if l.respTo != nil {
		l.resp.Digest(h)
	}
	h.Int(l.wtOutstanding)
	l.stats.Digest(h)
}

// Digest folds every L1Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *L1Stats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.Hits)
	h.U64(s.Misses)
	h.U64(s.WriteThroughs)
	h.U64(s.SelfInvls)
	h.U64(s.SelfDowns)
	h.U64(s.RacyOps)
}

// Digest folds the bank controller: the callback directory, queue-lock
// blocking bits and queued RMWs, the per-line MSHR locks and deferred
// operations, parked callback reads, the data bank, and the counters —
// all map-keyed state in ascending (address, core) order.
func (b *Bank) Digest(h *digest.Hash) {
	// Protocols without callbacks (BackOff, QueueLock) run banks with no
	// directory; presence is protocol-determined, so DigestCompatible
	// configs always agree on this branch.
	if b.cbdir != nil {
		b.cbdir.Digest(h)
	}

	qlAddrs := b.sortedQLAddrs()
	h.Int(len(qlAddrs))
	for _, a := range qlAddrs {
		st := b.queueLocks[a]
		h.U64(uint64(a))
		h.Bool(st.blocked)
		h.Int(len(st.queue))
		for _, q := range st.queue {
			q.msg.Digest(h)
		}
	}

	busyAddrs := make([]memtypes.Addr, 0, len(b.busy))
	for a := range b.busy { //cbvet:unordered — keys are sorted before hashing
		busyAddrs = append(busyAddrs, a)
	}
	sort.Slice(busyAddrs, func(i, j int) bool { return busyAddrs[i] < busyAddrs[j] })
	h.Int(len(busyAddrs))
	for _, a := range busyAddrs {
		h.U64(uint64(a))
	}

	b.deferq.Digest(h)

	parkAddrs := make([]memtypes.Addr, 0, len(b.parked))
	for a := range b.parked { //cbvet:unordered — keys are sorted before hashing
		parkAddrs = append(parkAddrs, a)
	}
	sort.Slice(parkAddrs, func(i, j int) bool { return parkAddrs[i] < parkAddrs[j] })
	h.Int(len(parkAddrs))
	for _, a := range parkAddrs {
		h.U64(uint64(a))
		cores := make([]memtypes.NodeID, 0, len(b.parked[a]))
		for c := range b.parked[a] { //cbvet:unordered — keys are sorted before hashing
			cores = append(cores, c)
		}
		sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
		for _, c := range cores {
			h.Int(int(c))
			b.parked[a][c].Digest(h)
		}
	}

	b.data.Digest(h)
	b.stats.Digest(h)
}

// Digest folds every BankCtrlStats field in declaration order (the
// struct's digest manifest, as for L1Stats above).
func (s *BankCtrlStats) Digest(h *digest.Hash) {
	h.U64(s.RacyReads)
	h.U64(s.RacyWrites)
	h.U64(s.RMWs)
	h.U64(s.CBDirAccesses)
	h.U64(s.Wakes)
	h.U64(s.StaleWakes)
	h.U64(s.Deferred)
	h.U64(s.QueuedRMWs)
	h.U64(s.QueueWakes)
}

// sortedQLAddrs returns the queue-lock map's keys ascending. Queue-lock
// entries persist after release (blocked=false, empty queue), so the
// digest includes them only when they hold live state — two banks that
// processed different lock histories but reached the same live state
// must digest equal.
func (b *Bank) sortedQLAddrs() []memtypes.Addr {
	addrs := make([]memtypes.Addr, 0, len(b.queueLocks))
	for a, st := range b.queueLocks { //cbvet:unordered — keys are sorted before hashing
		if st.blocked || len(st.queue) > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
