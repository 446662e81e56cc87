package cpu

import (
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Spin parking. A pure spin loop reaches the same read again with an
// identical register file, having run only side-effect-free ALU and
// branch ops in between, and at most one back-off wait whose interval no
// longer grows. On a SpinPort (the MESI L1, or the VIPS L1 for an
// ld_through of a line homed on its own tile) nothing can change such a
// loop until a message is delivered to the port, so the core parks it:
// instead of scheduling the loop's events — its issue, the port's
// events up to the response, and the step after the wait — it hands
// them to the kernel as a ghost (sim.Ghost), which keeps their place in
// the event order without queueing or running them. Settle applies the
// passed events' effects in bulk whenever the core's state is read;
// Wake, which the port calls when a message is delivered to it, before
// handling it, settles and schedules the pending event where it would
// have been. Stats come out exactly as if every iteration had run.
//
// A machine digest or replay mark reads a parked loop as the simulated
// one (see machine.Machine.ComponentDigests).
//
// The ghost's phases are: 0 the issue, 1 to ports the port's events
// (phase ports is the response, whose event runs Complete and the loop
// body up to the wait or the next issue), and, for a loop with a wait,
// phase ports+1 the step the wait schedules.

// spinLoop is the cold part of a core's spin-loop detector (the hot
// part, Core.spinPC, is touched on every memory op) and its park record.
type spinLoop struct {
	// instr is Instructions at the issue of the last candidate read,
	// regs the register file at the last issue of the read at
	// Core.spinPC (valid when seen).
	instr uint64
	seen  bool
	regs  [isa.NumRegs]uint64

	// waited records a back-off wait on the path since the last issue:
	// its interval wait, resume the cycles from the response to the step
	// it schedules, resumePC where that step starts, and waitInstrs the
	// instructions retired from the issue through the wait.
	waited     bool
	wait       uint64
	resume     uint64
	resumePC   int
	waitInstrs uint64

	// The park record. ghost carries the loop's events, k of them per
	// iteration with the delays cyc (phases as above), period cycles in
	// all; event i has phase i%k and fires i/k periods after start plus
	// the delays of the phases before i%k. settled counts the
	// events applied so far. Every iteration retires instrs
	// instructions; a loop with a wait (hasWait) retires waitInstrs of
	// them in its response event and the rest in its step.
	parked  bool
	ghost   sim.Ghost
	settled uint64
	start   uint64
	instrs  uint64
	period  uint64
	k       uint64
	ports   uint64
	hasWait bool
	cyc     [sim.MaxGhostPhases]uint8
	// ghosted counts the events the kernel passed for the core's parked
	// loops over its lifetime.
	ghosted uint64
}

// at is the cycle of the parked loop's event i.
func (s *spinLoop) at(i uint64) uint64 {
	return s.start + i/s.k*s.period + s.span(i%s.k)
}

// span is the cycles from the parked loop's issue to its event of phase
// p.
func (s *spinLoop) span(p uint64) uint64 {
	var t uint64
	for _, d := range s.cyc[:p] {
		t += uint64(d)
	}
	return t
}

// lat is the parked loop's cycles from an issue to its response.
func (s *spinLoop) lat() uint64 { return s.span(s.ports) }

// exec is the parked loop's cycles from a response to the next issue.
func (s *spinLoop) exec() uint64 { return s.period - s.lat() }

// spinWait runs the detector at a back-off wait retiring elapsed cycles
// of the batch and then waiting wait cycles: a loop accepts one wait
// whose interval no longer grows (saturated) with the register file it
// had at its read's last issue.
func (c *Core) spinWait(saturated bool, elapsed, wait uint64) {
	s := &c.spin
	if c.spinPC < 0 {
		return
	}
	if s.waited || !saturated || (s.seen && s.regs != c.regs) {
		c.spinPC = -1
		return
	}
	s.waited, s.wait, s.resume, s.resumePC = true, wait, elapsed+wait, c.pc
	s.waitInstrs = c.stats.Instructions - s.instr
}

// spinPark runs the detector at the issue of in, elapsed cycles from
// now, and parks the core when in closes a pure spin loop whose read
// the port can answer the same way until a message is delivered to it.
//
//cbsim:hotpath
func (c *Core) spinPark(in *isa.Instr, elapsed uint64) bool {
	s := &c.spin
	waited := s.waited
	s.waited = false
	if (in.Op != isa.Ld && in.Op != isa.LdT) || elapsed == 0 {
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
	if elapsed > sim.MaxGhostDelay || (waited && s.resume > sim.MaxGhostDelay) {
		return false // too long a loop body for a ghost
	}
	cyc, ok := c.sp.Park(&c.req, c)
	if !ok {
		return false
	}
	ports := uint64(cyc.Len)
	if waited {
		cyc.Delays[cyc.Len] = s.resume
		cyc.Len++
	}
	cyc.Delays[cyc.Len] = elapsed
	cyc.Len++
	s.k, s.period = uint64(cyc.Len), 0
	for p, d := range cyc.Delays[:cyc.Len] {
		s.cyc[p] = uint8(d) // at most MaxGhostDelay
		s.period += d
	}
	s.parked, s.settled, s.ports, s.hasWait = true, 0, ports, waited
	s.start = c.k.Now() + elapsed
	s.instrs = instrs
	c.k.Haunt(&s.ghost, elapsed, cyc)
	return true
}

// spinKinds are the core's accounting kinds a settled iteration emits.
// Only when one is wanted do parked loops settle event by event;
// otherwise any attached observer leaves them settling in bulk.
var spinKinds = trace.Of(trace.EvExec, trace.EvStallBegin, trace.EvStallEnd)

// Parked reports whether the core is parked in a spin loop.
func (c *Core) Parked() bool { return c.spin.parked }

// Ghosted reports how many events the kernel has passed for the core's
// parked loops, as of the last Settle: they did not execute, but the
// simulated loops would have fired them.
func (c *Core) Ghosted() uint64 { return c.spin.ghosted }

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
	s.settled, s.ghosted = to, s.ghosted+to-from
	if c.obs.Wants(spinKinds) {
		for i := from; i < to; i++ {
			c.spinEvent(i)
		}
	} else {
		for p := uint64(0); p < s.k; p++ {
			// The first event of phase p at or after from.
			first := from + (p+s.k-from%s.k)%s.k
			if first < to {
				c.spinPhase(p, (to-1-first)/s.k+1, first)
			}
		}
	}
	// The program counter and the detector's issue mark as the last
	// passed event left them: a response runs the body up to the wait.
	c.pc, s.instr = c.spinPC, c.stats.Instructions
	if s.hasWait && (to-1)%s.k == s.ports {
		c.pc, s.instr = s.resumePC, c.stats.Instructions-s.waitInstrs
	}
}

// spinPhase applies n events of phase p of the parked loop, the first
// being event first: the port's effects, and the core's counters for a
// response or the step after a wait (with its back-off waits' events
// when wanted).
//
//cbsim:hotpath
func (c *Core) spinPhase(p, n, first uint64) {
	s := &c.spin
	at := s.at(first)
	if p <= s.ports {
		c.sp.SpinEvents(&c.req, int(p), n, at, s.period)
	}
	switch {
	case p == 0:
		c.issuedAt = at + (n-1)*s.period
	case p == s.ports:
		if s.lat() >= IdleGateThreshold {
			c.stats.MemStallCycles += n * s.lat()
		}
		if !s.hasWait {
			c.spinRetire(n, s.instrs)
			return
		}
		c.stats.Instructions += n * s.waitInstrs
		c.stats.BackoffCycles += n * s.wait
		if c.obs.On(trace.EvWait) {
			pre := s.resume - s.wait
			for i := uint64(0); i < n; i++ {
				c.obs.Emit(trace.Event{Kind: trace.EvWait, Core: c.id, Cycle: at + i*s.period + pre,
					A: s.wait, B: uint64(c.curKind())})
			}
		}
	case p == s.ports+1:
		c.spinRetire(n, s.instrs-s.waitInstrs)
	}
}

// spinEvent applies event i of a parked loop with the observer events
// it emits when it fires: the read's issue (and the port's effects),
// the port's events, the response and the batch after it, or the step
// after the wait.
//
//cbsim:hotpath
func (c *Core) spinEvent(i uint64) {
	s := &c.spin
	p, at := i%s.k, s.at(i)
	switch {
	case p == 0:
		c.obs.Emit(trace.Event{Kind: trace.EvStallBegin, Core: c.id, Cycle: at,
			A: uint64(c.req.SyncKind), B: uint64(stallCategory(c.req.Kind))})
	case p == s.ports:
		c.obs.Emit(trace.Event{Kind: trace.EvStallEnd, Core: c.id, Cycle: at})
		if pre := s.exec(); !s.hasWait {
			c.obs.Emit(trace.Event{Kind: trace.EvExec, Core: c.id, A: pre, B: uint64(c.curKind())})
		} else if pre = s.resume - s.wait; pre > 0 {
			c.obs.Emit(trace.Event{Kind: trace.EvExec, Core: c.id, A: pre, B: uint64(c.curKind())})
		}
	case p == s.ports+1:
		c.obs.Emit(trace.Event{Kind: trace.EvExec, Core: c.id, A: uint64(s.cyc[p]), B: uint64(c.curKind())})
	}
	c.spinPhase(p, 1, i)
}

// spinRetire books n batches of the parked loop that end in the read's
// re-issue, each retiring instrs instructions: the register file comes
// back unchanged, so only counters and the request serial move.
//
//cbsim:hotpath
func (c *Core) spinRetire(n, instrs uint64) {
	c.stats.Instructions += n * instrs
	c.stats.MemOps += n
	c.req.Serial = c.stats.MemOps
}

// Wake implements memtypes.Spinner: a message is delivered to the port,
// the loop is to be observed, or a machine digest is taken, so it
// resumes as scheduled events. The passed events are settled, and the
// pending one is scheduled in the ghost's place. A core that is not
// parked ignores it.
//
//cbsim:hotpath
func (c *Core) Wake() {
	s := &c.spin
	if !s.parked {
		return
	}
	c.Settle()
	s.parked = false
	switch p := s.settled % s.k; {
	case p == 0:
		c.k.WakeGhost(&s.ghost, c, nil, stageIssue)
	case p <= s.ports:
		c.sp.SpinResume(&c.req, int(p), c, &s.ghost)
	default: // the step after the wait, which the response's body recorded
		s.waited = true
		c.k.WakeGhost(&s.ghost, c, nil, stageStep)
	}
}
