package vips

import (
	"repro/internal/memtypes"
)

// Tile bundles one node's L1 and LLC bank controller and demultiplexes
// network messages between them.
type Tile struct {
	L1   *L1
	Bank *Bank

	// spinner is the core last parked in a back-off spin on the bank
	// (see L1.Park), woken when the next message is delivered here.
	//cbvet:ephemeral whether a loop is parked changes no result; the machine wakes it before a digest
	spinner memtypes.Spinner
}

// NewTile bundles l1 and bank, the L1 and bank controller of one node,
// and lets the L1 see its tile: a back-off spin on a line homed here
// parks only while the bank is idle (see L1.Park).
func NewTile(l1 *L1, bank *Bank) *Tile {
	t := &Tile{L1: l1, Bank: bank}
	l1.tile = t
	return t
}

// Deliver implements noc.Handler. A core parked in a spin on the bank
// wakes before the message is handled.
func (t *Tile) Deliver(msg *memtypes.Message) {
	t.wakeSpinner()
	switch msg.Kind {
	case MsgGetLine, MsgWTLine, MsgRacy:
		t.Bank.Deliver(msg)
	default:
		t.L1.Deliver(msg)
	}
}

// wakeSpinner resumes a core parked in a spin on the tile's bank as
// scheduled events, exactly where its loop stands: a message is
// delivered here, or a trace wants the loop's events.
//
//cbsim:hotpath
func (t *Tile) wakeSpinner() {
	if s := t.spinner; s != nil {
		t.spinner = nil
		s.Wake()
	}
}
