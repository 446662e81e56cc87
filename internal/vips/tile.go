package vips

import (
	"repro/internal/memtypes"
)

// Tile bundles one node's L1 and LLC bank controller and demultiplexes
// network messages between them.
type Tile struct {
	L1   *L1
	Bank *Bank

	// inbound counts the messages sent to the tile and not yet
	// delivered, and decides only whether a spin parks, which changes no
	// result; spinner is the core last parked in a back-off spin on the
	// bank (see L1.Park), woken when the next message is sent here.
	//cbvet:ephemeral decides only whether a spin parks
	inbound int
	//cbvet:ephemeral whether a loop is parked changes no result; the machine wakes it before a digest
	spinner memtypes.Spinner
}

// NewTile bundles l1 and bank, the L1 and bank controller of one node,
// and lets the L1 see its tile: a back-off spin on a line homed here
// parks only while the bank is idle and nothing is on its way to the
// tile (see L1.Park).
func NewTile(l1 *L1, bank *Bank) *Tile {
	t := &Tile{L1: l1, Bank: bank}
	l1.tile = t
	return t
}

// Deliver implements noc.Handler.
func (t *Tile) Deliver(msg *memtypes.Message) {
	t.inbound--
	switch msg.Kind {
	case MsgGetLine, MsgWTLine, MsgRacy:
		t.Bank.Deliver(msg)
	default:
		t.L1.Deliver(msg)
	}
}

// Incoming implements noc.Incomer: the tile counts the messages in
// flight to it, and the first one sent wakes a core parked in a spin on
// its bank before anything is scheduled for the message.
//
//cbsim:hotpath
func (t *Tile) Incoming(*memtypes.Message) {
	t.inbound++
	t.wakeSpinner()
}

// wakeSpinner resumes a core parked in a spin on the tile's bank as
// scheduled events, exactly where its loop stands: a message is being
// sent here, or a trace wants the loop's events.
//
//cbsim:hotpath
func (t *Tile) wakeSpinner() {
	if s := t.spinner; s != nil {
		t.spinner = nil
		s.Wake()
	}
}
