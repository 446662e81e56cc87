package cpu

import (
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Spin parking. A pure spin loop reaches the same Ld again with an
// identical register file, having run only side-effect-free ALU and
// branch ops in between, and its loads hit. On a SpinPort (the MESI L1)
// nothing can change such a loop until a message is sent to the L1, so
// the core parks it: instead of scheduling the loop's issue and response
// events it hands them to the kernel as a ghost (sim.Ghost), which keeps
// their place in the event order without queueing or running them.
// Settle applies the passed events' effects in bulk whenever the core's
// state is read; Wake, which the port calls before a message to it is
// scheduled, settles and schedules the pending event where it would have
// been. Stats come out exactly as if every iteration had run.

// spinLoop is the cold part of a core's spin-loop detector (the hot
// part, Core.spinPC, is touched on every memory op) and its park record.
type spinLoop struct {
	// instr is Instructions at the issue of the Ld at Core.spinPC, regs
	// the register file then (valid when seen).
	instr uint64
	seen  bool
	regs  [isa.NumRegs]uint64

	// The park record. ghost carries the loop's events, which alternate
	// the load's issue and its response: event i is the issue of
	// iteration i/2 when i is even, its response when odd. settled counts
	// the events applied so far. Every iteration retires instrs
	// instructions in exec cycles before the load, which hits after lat
	// cycles; the first issue is at cycle start.
	parked  bool
	ghost   sim.Ghost
	settled uint64
	start   uint64
	exec    uint64
	lat     uint64
	instrs  uint64
}

// spinPark runs the detector at the issue of in, elapsed cycles from
// now, and parks the core when in closes a pure spin loop whose load
// the port reports as a hit with nothing in flight to it.
//
//cbsim:hotpath
func (c *Core) spinPark(in *isa.Instr, elapsed uint64) bool {
	s := &c.spin
	if in.Op != isa.Ld || elapsed == 0 {
		c.spinPC = -1
		return false
	}
	instrs := c.stats.Instructions - s.instr
	s.instr = c.stats.Instructions
	if c.spinPC != c.pc {
		c.spinPC, s.seen = c.pc, false
		return false
	}
	if !s.seen || s.regs != c.regs {
		s.seen, s.regs = true, c.regs
		return false
	}
	if elapsed > sim.MaxGhostDelay {
		return false // too long a loop body for a ghost
	}
	lat, ok := c.sp.Park(&c.req, c)
	if !ok {
		return false
	}
	s.parked, s.settled = true, 0
	s.start = c.k.Now() + elapsed
	s.exec, s.lat, s.instrs = elapsed, lat, instrs
	c.k.Haunt(&s.ghost, elapsed, [2]uint64{lat, elapsed})
	return true
}

// spinKinds are the kinds a settled iteration emits from the core. Only
// when one is wanted do parked loops settle event by event; otherwise
// any attached observer leaves them settling in bulk.
var spinKinds = trace.Of(trace.EvExec, trace.EvStallBegin, trace.EvStallEnd)

// Parked reports whether the core is parked in a spin loop.
func (c *Core) Parked() bool { return c.spin.parked }

// Settle applies the effects of the parked loop's events the kernel has
// passed since the last call: the core's and its port's counters, state
// and observer events end exactly as if those events had fired.
//
//cbsim:hotpath
func (c *Core) Settle() {
	s := &c.spin
	if !s.parked {
		return
	}
	from, to := s.settled, s.ghost.Passed()
	if from == to {
		return
	}
	s.settled = to
	if c.obs.Wants(spinKinds) {
		for i := from; i < to; i++ {
			c.spinEvent(i)
		}
		return
	}
	// Even events are issues: iterations (from+1)/2 .. (to+1)/2-1.
	first, end := (from+1)/2, (to+1)/2
	if n := end - first; n > 0 {
		period := s.exec + s.lat
		c.sp.SpinHits(&c.req, n, s.start+first*period, period)
		c.issuedAt = s.start + (end-1)*period
	}
	c.spinRetire(to/2 - from/2)
}

// spinEvent applies event i of a parked loop, with the observer events
// it emits when it fires: the load's issue (and the port's hit), or its
// response and the next iteration's batch.
//
//cbsim:hotpath
func (c *Core) spinEvent(i uint64) {
	s := &c.spin
	at := s.start + i/2*(s.exec+s.lat)
	if i%2 == 1 {
		at += s.lat
		c.obs.Emit(trace.Event{Kind: trace.EvStallEnd, Core: c.id, Cycle: at})
		c.obs.Emit(trace.Event{Kind: trace.EvExec, Core: c.id, A: s.exec, B: uint64(c.curKind())})
		c.spinRetire(1)
		return
	}
	c.issuedAt = at
	c.obs.Emit(trace.Event{Kind: trace.EvStallBegin, Core: c.id, Cycle: at,
		A: uint64(c.req.SyncKind), B: uint64(stallCategory(c.req.Kind))})
	c.sp.SpinHits(&c.req, 1, at, s.exec+s.lat)
}

// spinRetire books n responses of the parked loop's load, each followed
// by the batch that re-issues it: the register file and PC come back
// unchanged, so only counters, the request serial and the detector's
// instruction mark move.
//
//cbsim:hotpath
func (c *Core) spinRetire(n uint64) {
	s := &c.spin
	if s.lat >= IdleGateThreshold {
		c.stats.MemStallCycles += n * s.lat
	}
	c.stats.Instructions += n * s.instrs
	c.stats.MemOps += n
	c.req.Serial = c.stats.MemOps
	s.instr = c.stats.Instructions
}

// Wake implements memtypes.Spinner: a message is being sent to the
// port, so the loop resumes as scheduled events. The passed events are
// settled, and the pending one is scheduled in the ghost's place.
//
//cbsim:hotpath
func (c *Core) Wake() {
	c.Settle()
	s := &c.spin
	s.parked = false
	if s.settled%2 == 1 { // the pending event is a response
		c.sp.SpinRespond(&c.req, c, &s.ghost)
		return
	}
	c.k.WakeGhost(&s.ghost, c, nil, stageIssue)
}
