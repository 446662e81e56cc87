// Package mesi implements the invalidation-based, directory-based MESI
// protocol the paper uses as its conventional baseline (Section 5.2,
// "Invalidation").
//
// Each LLC bank hosts the directory slice for the lines it owns: a full
// sharers bit-vector plus an owner pointer. The directory is the
// serialization point — it blocks per line while a transaction is in
// flight and defers later requests, the standard discipline that keeps
// the protocol race-free. Writes collect invalidation acknowledgements at
// the directory before data is granted, so communicating a value to a
// spinning reader costs the five messages the paper counts: {write(GetX),
// invalidation, acknowledgement, load(GetS), data}.
//
// Atomics acquire M state and execute locally in the L1, which is what
// makes contended test&set locks ping-pong lines under invalidation.
// Racy operations and fences degenerate to their plain equivalents: MESI
// needs no self-invalidation and spins efficiently on local S copies.
package mesi

import "repro/internal/memtypes"

// Message kinds.
const (
	// MsgGetS requests read permission (L1 -> dir, control).
	MsgGetS = memtypes.MsgKind(memtypes.KindMESIBase) + iota
	// MsgGetX requests write permission (L1 -> dir, control).
	MsgGetX
	// MsgPutM writes back an evicted modified line (L1 -> dir, line).
	MsgPutM
	// MsgPutE returns an evicted clean-exclusive line (L1 -> dir, control).
	MsgPutE
	// MsgInv invalidates a sharer (dir -> L1, control).
	MsgInv
	// MsgInvAck acknowledges an invalidation (L1 -> dir, control).
	MsgInvAck
	// MsgFwdGetS forwards a read to the owner (dir -> L1, control).
	MsgFwdGetS
	// MsgFwdGetX forwards a write to the owner (dir -> L1, control).
	MsgFwdGetX
	// MsgDataWB carries the owner's line back to the directory in
	// response to a forward (L1 -> dir, line).
	MsgDataWB
	// MsgDataS grants a shared copy (dir -> L1, line).
	MsgDataS
	// MsgDataE grants a clean-exclusive copy (dir -> L1, line).
	MsgDataE
	// MsgDataX grants an exclusive copy for writing, sent only after
	// all invalidation acks arrived (dir -> L1, line).
	MsgDataX
	// MsgWBAck acknowledges a writeback (dir -> L1, control).
	MsgWBAck
)

// Tile bundles one node's L1 and directory bank and demultiplexes
// network messages between them.
type Tile struct {
	L1  *L1
	Dir *Dir
}

// toDir reports whether a message of kind k is for the directory (the
// rest are for the L1).
func toDir(k memtypes.MsgKind) bool {
	switch k {
	case MsgGetS, MsgGetX, MsgPutM, MsgPutE, MsgInvAck, MsgDataWB:
		return true
	}
	return false
}

// Deliver implements noc.Handler.
func (t *Tile) Deliver(msg *memtypes.Message) {
	if toDir(msg.Kind) {
		t.Dir.Deliver(msg)
		return
	}
	t.L1.Deliver(msg)
}

// Incoming implements noc.Incomer: the L1 counts the messages in flight
// to it and wakes its parked spinner before the first one is scheduled.
//
//cbsim:hotpath
func (t *Tile) Incoming(msg *memtypes.Message) {
	if !toDir(msg.Kind) {
		t.L1.incoming()
	}
}
