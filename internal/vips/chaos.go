package vips

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/memtypes"
)

// This file holds the bank's fault-injection hooks and the callback
// invariant checker. Every hook is nil-guarded by the caller, so with
// chaos disabled the bank's behavior and Stats are bit-identical to a
// build without this file.

// SetChaos installs a fault-injection engine on the bank (nil disables
// injection).
func (b *Bank) SetChaos(e *chaos.Engine) { b.chaos = e }

// injectChaos applies per-operation directory faults before a racy
// operation is dispatched: a forced eviction of a random entry (whose
// waiters are answered with the current value — legal at any time per
// Section 2.3.1) and/or a spurious wake on the operation's own line.
// Only called when both chaos and the callback directory are present.
func (b *Bank) injectChaos(addr memtypes.Addr) {
	if pick, ok := b.chaos.ForcedEviction(); ok {
		b.answerEviction(b.cbdir.ForceEvict(pick))
	}
	if b.chaos.SpuriousWake() {
		b.spuriousWake(addr)
	}
}

// spuriousWake answers one waiter on addr with the current value even
// though no write happened — the st_cb0-style wake the paper's spin
// loops must tolerate: the woken core observes an unchanged value,
// re-checks, and re-subscribes with a fresh ld_cb.
func (b *Bank) spuriousWake(addr memtypes.Addr) {
	_, cb, _, ok := b.cbdir.EntryState(addr)
	if !ok {
		return
	}
	var waiters []int
	for c, set := range cb {
		if set {
			waiters = append(waiters, c)
		}
	}
	if len(waiters) == 0 {
		return
	}
	victim := waiters[b.chaos.Pick(len(waiters))]
	b.cbdir.CancelCallback(victim, addr)
	b.wake([]int{victim}, addr, b.store.Load(addr), true)
}

// wakeBatch is the set of callback wakes one write services on one word,
// carrying the written value to the woken cores.
type wakeBatch struct {
	cores []int
	addr  memtypes.Addr
	value uint64
}

// newWakes returns an empty wake batch for a write of value to addr,
// reusing a delivered one when available.
//
//cbsim:hotpath
func (b *Bank) newWakes(addr memtypes.Addr, value uint64) *wakeBatch {
	var wb *wakeBatch
	if n := len(b.spareWakes); n > 0 {
		wb = b.spareWakes[n-1]
		b.spareWakes[n-1] = nil
		b.spareWakes = b.spareWakes[:n-1]
	} else {
		//cbvet:alloc-ok pool growth; steady state reuses delivered batches
		wb = &wakeBatch{}
	}
	wb.addr, wb.value = addr, value
	return wb
}

// wakeAfter delivers wb delay cycles from now (stageWake); chaos may
// stretch the window between the directory update (callback bits already
// cleared) and the delivery of the wakes — the delayed F/E-bit
// visibility fault. A zero total delay wakes synchronously, exactly like
// calling wake directly.
//
//cbsim:hotpath
func (b *Bank) wakeAfter(delay uint64, wb *wakeBatch) {
	if b.chaos != nil {
		delay += b.chaos.WakeDelay()
	}
	if delay == 0 {
		b.deliverWakes(wb)
		return
	}
	b.k.ScheduleActor(delay, b, wb, stageWake)
}

// deliverWakes services wb's wakes and recycles it.
//
//cbsim:hotpath
func (b *Bank) deliverWakes(wb *wakeBatch) {
	b.wake(wb.cores, wb.addr, wb.value, false)
	wb.cores = wb.cores[:0]
	b.spareWakes = append(b.spareWakes, wb)
}

// accessLat returns the LLC access latency for addr, plus chaos jitter.
func (b *Bank) accessLat(addr memtypes.Addr, needData bool, syncKind uint8) uint64 {
	lat := b.data.Access(addr, needData, syncKind)
	if b.chaos != nil {
		lat += b.chaos.LLCJitter()
	}
	return lat
}

// CheckCallbackInvariants verifies the no-lost-wakeup contract between
// the callback directory and the bank's parked operations: every set
// callback bit must have a matching parked operation (a set bit with no
// parked op is a wake that can never be delivered). Parked operations
// may transiently outnumber set bits while a wake is in flight (the
// write clears the bits, the wake message delivers later), so the
// reverse direction only holds when final is true — after the machine
// has quiesced — where both counts must be exactly zero.
func (b *Bank) CheckCallbackInvariants(final bool) error {
	if b.cbdir == nil {
		if final && b.Parked() != 0 {
			return fmt.Errorf("vips: bank %d: %d operations parked with no callback directory", b.id, b.Parked())
		}
		return nil
	}
	var err error
	waiters := 0
	b.cbdir.VisitEntries(func(addr memtypes.Addr, fe, cb []bool, one bool) {
		for c, set := range cb {
			if !set {
				continue
			}
			waiters++
			if err != nil {
				continue
			}
			m := b.parked[addr]
			if m == nil || m[memtypes.NodeID(c)] == nil {
				err = fmt.Errorf("vips: bank %d: callback bit set for core %d on %s with no parked operation (lost wakeup)", b.id, c, addr.Word())
			}
		}
	})
	if err != nil {
		return err
	}
	if final {
		if n := b.Parked(); n != 0 {
			return fmt.Errorf("vips: bank %d: %d operations still parked after quiesce", b.id, n)
		}
		if waiters != 0 {
			return fmt.Errorf("vips: bank %d: %d callback bits still set after quiesce", b.id, waiters)
		}
	}
	return nil
}

// ParkedOp reports the line a core is currently parked on at this bank,
// if any. A core has at most one operation in flight, so at most one
// entry across all banks can match; the map scan is therefore
// order-independent.
func (b *Bank) ParkedOp(core memtypes.NodeID) (memtypes.Addr, bool) {
	//cbvet:unordered at most one parked op per core can match
	for addr, m := range b.parked {
		if m[core] != nil {
			return addr, true
		}
	}
	return 0, false
}
