package vips

import (
	"repro/internal/cycles"
	"repro/internal/memtypes"
)

// This file implements the VIPS-M lock mechanism the paper contrasts
// callbacks against (Sections 1 and 2): "The VIPS-M approach uses a
// blocking bit in the LLC cache lines and queues requests in the LLC
// controller when this bit is set."
//
// In queue-lock mode, a test&set-style RMW that FAILS its test is not
// answered; the bank sets the word's blocking bit and queues the request
// FIFO. A subsequent racy write to the word (the release) clears the bit
// and replays the head of the queue, which then wins its test. The paper
// criticizes exactly the properties visible here: the mechanism only
// helps atomics (flag spin-waiting still needs back-off), it imposes the
// hardware's FIFO policy on the lock algorithm, and the queue is bounded
// only by cores.
//
// Enabled with ModeQueueLock; it shares everything else with the
// back-off configuration.

// queuedRMW is one blocked atomic waiting for a write.
type queuedRMW struct {
	msg *memtypes.Message
}

// qlState tracks the blocking bit and FIFO queue for one word.
type qlState struct {
	blocked bool
	queue   []queuedRMW
}

// qlFor returns (creating if needed) the queue-lock state of a word.
func (b *Bank) qlFor(addr memtypes.Addr) *qlState {
	w := addr.Word()
	st, ok := b.queueLocks[w]
	if !ok {
		st = &qlState{}
		b.queueLocks[w] = st
	}
	return st
}

// qlMaybeQueue decides whether a failing RMW should be queued instead of
// answered: true means the caller must not respond (the request was
// enqueued).
func (b *Bank) qlMaybeQueue(msg *memtypes.Message, old uint64) bool {
	if b.mode != ModeQueueLock {
		return false
	}
	req := msg.Req
	// Only test-style atomics engage the blocking bit; unconditional
	// atomics (swap, fetch&add) always complete.
	if req.RMW != memtypes.RMWTestAndSet && req.RMW != memtypes.RMWTestAndDec &&
		req.RMW != memtypes.RMWCompareAndSwap {
		return false
	}
	if _, writes := req.RMW.Apply(old, req.Expect, req.Arg); writes {
		return false // the test succeeds: answer normally
	}
	st := b.qlFor(req.Addr)
	st.blocked = true
	st.queue = append(st.queue, queuedRMW{msg: msg})
	b.stats.QueuedRMWs++
	b.obs.Open(msg.Core, b.k.Now(), uint64(cycles.CatCBBlocked)) // held at the controller: blocked, not spinning
	return true
}

// qlRelease is called after any racy write commits to the word: if RMWs
// are queued, replay the head (FIFO) — it re-executes against the new
// value and, for a lock release, wins its test.
func (b *Bank) qlRelease(addr memtypes.Addr) {
	if b.mode != ModeQueueLock {
		return
	}
	st, ok := b.queueLocks[addr.Word()]
	if !ok || len(st.queue) == 0 {
		st0 := st
		if ok {
			st0.blocked = false
		}
		return
	}
	head := st.queue[0]
	st.queue = st.queue[1:]
	if len(st.queue) == 0 {
		st.blocked = false
	}
	b.stats.QueueWakes++
	b.obs.Close(head.msg.Core, b.k.Now())
	// Replay the queued RMW; it goes through the normal execution path
	// (including the possibility of being re-queued if another core
	// snatched the lock in between — cannot happen for FIFO hand-off,
	// since the replay runs under the line lock before newcomers).
	b.withLine(head.msg)
}

// QueueDepth reports the number of queued RMWs on addr's word (tests).
func (b *Bank) QueueDepth(addr memtypes.Addr) int {
	if st, ok := b.queueLocks[addr.Word()]; ok {
		return len(st.queue)
	}
	return 0
}
