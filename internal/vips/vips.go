// Package vips implements the self-invalidation / self-downgrade
// coherence protocol the paper builds on (a VIPS-M variant with
// acquire/release fencing, Section 3.1 and 5.2), optionally augmented
// with the callback directory of internal/core.
//
// Data-race-free data is cached in the L1 with per-word dirty bits and
// written through at release fences (self-downgrade) and evictions;
// acquire fences self-invalidate the shared contents. There is no
// directory and no invalidation traffic. Racy operations (ld_through,
// ld_cb, st_through, st_cb*, atomics) bypass the L1 and meet at the LLC
// bank that owns the line; atomics lock the line's LLC MSHR for the
// duration of the access (Section 2.6).
package vips

import (
	"repro/internal/core"
	"repro/internal/memtypes"
)

// Message kinds.
const (
	// MsgGetLine requests a line fill (L1 -> bank, control).
	MsgGetLine = memtypes.MsgKind(memtypes.KindVIPSBase) + iota
	// MsgDataLine returns line data (bank -> L1, line class).
	MsgDataLine
	// MsgWTLine writes dirty words through (L1 -> bank, word class).
	MsgWTLine
	// MsgWTAck acknowledges a write-through (bank -> L1, control).
	MsgWTAck
	// MsgRacy carries a racy operation to the LLC (control for loads,
	// word class for stores/RMWs).
	MsgRacy
	// MsgRacyResp completes a racy operation (word class for loads and
	// RMWs, control for store acks).
	MsgRacyResp
)

// Mode selects how the protocol handles spin-waiting races.
type Mode uint8

const (
	// ModeBackoff is the VIPS-M baseline: racy loads spin on the LLC
	// with exponential back-off (applied by the program's BackoffWait
	// ops); there is no callback directory.
	ModeBackoff Mode = iota
	// ModeCallback adds the callback directory at each LLC bank.
	ModeCallback
	// ModeQueueLock is the VIPS-M lock mechanism the paper contrasts
	// against: a blocking bit per word queues failing test-style RMWs
	// at the LLC controller until a write releases them (FIFO).
	ModeQueueLock
)

func (m Mode) String() string {
	switch m {
	case ModeBackoff:
		return "backoff"
	case ModeCallback:
		return "callback"
	case ModeQueueLock:
		return "queuelock"
	}
	return "vips-mode?"
}

// CBDirLatency is the callback-directory access time in cycles (Table
// 2), paid by callback reads before the LLC and by the wakes of a write.
const CBDirLatency = 1

// Config parameterizes the protocol.
type Config struct {
	Mode Mode
	// CBEntriesPerBank sizes each bank's callback directory
	// (core.DefaultEntries when zero; Table 2 uses 4).
	CBEntriesPerBank int
	// WakePolicy selects the write_CB1 victim policy.
	WakePolicy core.WakePolicy
	// CBEvict selects the directory replacement policy.
	CBEvict core.EvictPolicy
	// CBLineGranular switches the directory to line-granular tags
	// (ablation; the paper uses word granularity).
	CBLineGranular bool
}
