// Package cycles is the cycle-accounting layer: it attributes every
// simulated cycle of every core to exactly one category (compute, L1
// stall, LLC stall, coherence stall, spin-wait, cb-blocked,
// barrier-wait, NoC transit, idle), cross-tabulated by the innermost
// synchronization phase the core was in (acquire, barrier, wait, ...).
//
// The accounting is conservation-exact by construction: each core
// carries a high-water mark (the next unattributed cycle), and the only
// operations are "advance the mark by n cycles into category C" and
// "commit the window [mark, end) of a memory stall, carved into the
// component segments the memory system reported". Whatever part of a
// stall window no component claimed falls into the stall's default
// category, so per-core category sums always equal the accounted
// horizon — machine.CheckInvariants asserts this at end of run.
//
// The Accumulator is a trace.Sink: it reads the accounting kinds of the
// machine's one typed event stream (see internal/trace), which every
// component emits through its single SetObserver. Feeding is
// observational only: results are byte-identical with accounting on or
// off, and the kernel hot path stays allocation-free.
package cycles

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Category is the exclusive attribution bucket of a simulated cycle.
type Category uint8

const (
	// CatCompute: the core retired instructions (or charged fixed
	// per-instruction latency).
	CatCompute Category = iota
	// CatL1Stall: a memory stall's cycles spent in the private L1
	// (hit latency, fill latency).
	CatL1Stall
	// CatLLCStall: LLC/memory bank access time of a stall.
	CatLLCStall
	// CatCoherenceStall: directory/coherence protocol work — owner
	// forwards, invalidation rounds, callback-directory consults,
	// self-invalidation fences.
	CatCoherenceStall
	// CatSpinWait: cycles burned actively re-checking a
	// synchronization variable (compute and L1-hit time inside an
	// acquire/wait phase, and BackOff's scheduled wait intervals).
	CatSpinWait
	// CatCBBlocked: cycles a core sat de-scheduled waiting for a
	// callback (parked in the cb directory, queued behind a QueueLock
	// holder, or MWAIT-quiesced on a monitored line).
	CatCBBlocked
	// CatBarrierWait: CatSpinWait's equivalent inside a barrier phase.
	CatBarrierWait
	// CatNoC: a stall's cycles spent with its request or response in
	// flight on the mesh.
	CatNoC
	// CatIdle: cycles after a core finished its program, up to the
	// machine-wide horizon (the slowest core's completion).
	CatIdle
	// NumCategories bounds the enum.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"compute", "l1_stall", "llc_stall", "coherence_stall",
	"spin_wait", "cb_blocked", "barrier_wait", "noc_transit", "idle",
}

// String returns the exposition name of the category (the label value
// of sim_cycles_total and the leaf frame of the cycle profile).
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// CoreStack is one core's cycle attribution, cross-tabulated by the
// innermost synchronization phase the core was in when the cycles were
// spent. ByPhase[kind][cat] counts cycles.
type CoreStack struct {
	ByPhase [isa.NumSyncKinds][NumCategories]uint64 `json:"by_phase"`
}

// Categories flattens the phase dimension: total cycles per category.
func (c *CoreStack) Categories() [NumCategories]uint64 {
	var out [NumCategories]uint64
	for k := range c.ByPhase {
		for cat, n := range c.ByPhase[k] {
			out[cat] += n
		}
	}
	return out
}

// Total is the core's accounted cycle count across all buckets.
func (c *CoreStack) Total() uint64 {
	var t uint64
	for k := range c.ByPhase {
		for _, n := range c.ByPhase[k] {
			t += n
		}
	}
	return t
}

// MachineStack is a whole machine's cycle accounting at a horizon:
// per-core stacks (each summing exactly to Horizon at end of run) plus
// the aggregate message-in-flight cycle count (a NoC-load side channel,
// deliberately not part of the per-core conservation sum).
type MachineStack struct {
	Horizon      uint64      `json:"horizon"`
	Cores        []CoreStack `json:"cores"`
	NoCMsgCycles uint64      `json:"noc_msg_cycles"`
}

// Totals aggregates the per-core category sums.
func (m *MachineStack) Totals() [NumCategories]uint64 {
	var out [NumCategories]uint64
	for i := range m.Cores {
		for cat, n := range m.Cores[i].Categories() {
			out[cat] += n
		}
	}
	return out
}

// TotalCycles is cores x horizon, the conservation target.
func (m *MachineStack) TotalCycles() uint64 {
	return m.Horizon * uint64(len(m.Cores))
}

// seg is a component-claimed interval of an in-flight stall window.
type seg struct {
	start, end uint64
	cat        Category
}

// coreAcc is the per-core accumulator state.
type coreAcc struct {
	stack CoreStack
	// mark is the next unattributed cycle: every cycle before it is in
	// the stack. Conservation follows because mark only advances in
	// lockstep with stack additions.
	mark uint64
	// In-flight memory stall (between trace.EvStallBegin and
	// trace.EvStallEnd).
	inStall   bool
	stallKind isa.SyncKind
	stallDef  Category
	segs      []seg
	// Open-ended component leg (EvOpen, EvCBBlock or EvMonArm until
	// the close that ends it).
	open      bool
	openStart uint64
	openCat   Category
	// Completion.
	done   bool
	doneAt uint64
	// Messages in flight tagged with this core (union of intervals).
	nocDepth  int
	nocStart  uint64
	msgCycles uint64
}

// add books n cycles of category cat under phase kind, reclassifying
// active waiting: compute and L1-hit time inside an acquire/wait phase
// is the spin loop itself, so it lands in spin-wait (barrier-wait for
// barrier phases). Memory-system categories (NoC, LLC, coherence) keep
// their identity even while spinning — that distinction is the paper's
// argument: invalidation-based spinning burns NoC and LLC cycles, the
// callback directory converts them to blocked time.
func (c *coreAcc) add(kind isa.SyncKind, cat Category, n uint64) {
	if n == 0 {
		return
	}
	if cat == CatCompute || cat == CatL1Stall {
		switch kind {
		case isa.SyncBarrier:
			cat = CatBarrierWait
		case isa.SyncAcquire, isa.SyncWait:
			cat = CatSpinWait
		}
	}
	c.stack.ByPhase[kind][cat] += n
}

// closeOpen ends the open component leg at cycle, if any.
func (c *coreAcc) closeOpen(cycle uint64) {
	if !c.open {
		return
	}
	c.open = false
	if !c.inStall || cycle <= c.openStart {
		return
	}
	c.segs = append(c.segs, seg{c.openStart, cycle, c.openCat})
}

// commit attributes the stall window [mark, end): component segments
// get their claimed categories (clamped to the window, overlaps
// resolved first-claim-wins), gaps fall to the stall's default
// category. The mark lands exactly on end, preserving conservation
// regardless of how well the components covered the window.
func (c *coreAcc) commit(end uint64) {
	if end < c.mark {
		end = c.mark
	}
	cursor := c.mark
	for i := range c.segs {
		s := c.segs[i]
		if s.end > end {
			s.end = end
		}
		if s.start < cursor {
			s.start = cursor
		}
		if s.end <= s.start {
			continue
		}
		c.add(c.stallKind, c.stallDef, s.start-cursor)
		c.add(c.stallKind, s.cat, s.end-s.start)
		cursor = s.end
	}
	c.add(c.stallKind, c.stallDef, end-cursor)
	c.mark = end
	c.segs = c.segs[:0]
	c.inStall = false
}

// Accumulator receives the accounting kinds of every component of one
// machine and maintains per-core cycle stacks. It is single-goroutine
// like the machine that feeds it.
type Accumulator struct {
	cores []coreAcc
}

// NewAccumulator returns an accumulator for a machine with n cores.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{cores: make([]coreAcc, n)}
}

// accountingKinds are the kinds the accounting reads. Settled spin loops
// fire EvExec, EvStallBegin, EvStallEnd and EvSpan per iteration, so an
// attached Accumulator makes parked loops settle event by event.
var accountingKinds = trace.Of(trace.EvExec, trace.EvWait, trace.EvStallBegin, trace.EvStallEnd,
	trace.EvDone, trace.EvOpen, trace.EvClose, trace.EvSpan,
	trace.EvNoCSend, trace.EvNoCDeliver,
	trace.EvCBBlock, trace.EvCBWake, trace.EvCBStale, trace.EvMonArm, trace.EvMonWake)

// Kinds implements trace.Sink.
func (a *Accumulator) Kinds() trace.Mask { return accountingKinds }

// Emit implements trace.Sink; see the trace.Kind constants for the
// operand meanings. Events for out-of-range cores (possible only for
// mesh-level events on protocol-internal messages) are dropped.
func (a *Accumulator) Emit(e trace.Event) {
	if e.Core < 0 || int(e.Core) >= len(a.cores) {
		return
	}
	c := &a.cores[e.Core]
	cycle, x, y := e.Cycle, e.A, e.B
	switch e.Kind {
	case trace.EvExec:
		c.add(isa.SyncKind(y), CatCompute, x)
		c.mark += x
	case trace.EvWait:
		kind := isa.SyncKind(y)
		cat := CatSpinWait
		if kind == isa.SyncBarrier {
			cat = CatBarrierWait
		}
		c.stack.ByPhase[kind][cat] += x
		c.mark += x
	case trace.EvStallBegin:
		c.inStall = true
		c.stallKind = isa.SyncKind(x)
		c.stallDef = Category(y)
		c.open = false
		c.segs = c.segs[:0]
	case trace.EvStallEnd:
		c.closeOpen(cycle)
		if c.inStall {
			c.commit(cycle)
		}
	case trace.EvDone:
		if c.inStall { // defensive: a Done core has no stall in flight
			c.closeOpen(cycle)
			c.commit(cycle)
		}
		if cycle > c.mark {
			c.add(isa.SyncNone, CatCompute, cycle-c.mark)
			c.mark = cycle
		}
		c.done, c.doneAt = true, cycle
	case trace.EvOpen:
		c.openLeg(cycle, Category(x))
	case trace.EvCBBlock, trace.EvMonArm:
		// A core parked in the callback directory, or halted on its
		// monitor, is blocked.
		c.openLeg(cycle, CatCBBlocked)
	case trace.EvClose, trace.EvCBWake, trace.EvCBStale, trace.EvMonWake:
		c.closeOpen(cycle)
	case trace.EvSpan:
		if c.inStall && x > cycle {
			c.closeOpen(cycle)
			c.segs = append(c.segs, seg{cycle, x, Category(y)})
		}
	case trace.EvNoCSend:
		if c.nocDepth == 0 {
			c.nocStart = cycle
		}
		c.nocDepth++
	case trace.EvNoCDeliver:
		if c.nocDepth > 0 {
			c.nocDepth--
			if c.nocDepth == 0 && cycle > c.nocStart {
				c.msgCycles += cycle - c.nocStart
			}
		}
	}
}

// openLeg starts an open-ended leg of category cat at cycle, ending the
// previous one.
func (c *coreAcc) openLeg(cycle uint64, cat Category) {
	if c.inStall {
		c.closeOpen(cycle)
		c.open, c.openStart, c.openCat = true, cycle, cat
	}
}

// Snapshot renders the accounting at the given horizon without
// perturbing live state (the accumulator keeps feeding afterwards).
// In-flight stalls are provisionally committed at the horizon; cores
// idle since completion are filled with CatIdle, cores merely between
// events with CatCompute. At end of run (horizon = the slowest core's
// completion time) every core's stack sums exactly to the horizon.
func (a *Accumulator) Snapshot(horizon uint64) *MachineStack {
	ms := &MachineStack{Horizon: horizon, Cores: make([]CoreStack, len(a.cores))}
	for i := range a.cores {
		cc := a.cores[i] // copy; give it private segment storage
		cc.segs = append([]seg(nil), cc.segs...)
		if cc.inStall {
			cc.closeOpen(horizon)
			cc.commit(horizon)
		} else if cc.mark < horizon {
			cat := CatCompute
			if cc.done {
				cat = CatIdle
			}
			cc.add(isa.SyncNone, cat, horizon-cc.mark)
			cc.mark = horizon
		}
		ms.Cores[i] = cc.stack
		ms.NoCMsgCycles += cc.msgCycles
		if cc.nocDepth > 0 && horizon > cc.nocStart {
			ms.NoCMsgCycles += horizon - cc.nocStart
		}
	}
	return ms
}

// CheckConservation verifies the hard invariant at an end-of-run
// horizon: every core's categories sum exactly to the horizon.
func (a *Accumulator) CheckConservation(horizon uint64) error {
	ms := a.Snapshot(horizon)
	for i := range ms.Cores {
		if t := ms.Cores[i].Total(); t != horizon {
			return fmt.Errorf("cycles: core %d attributes %d of %d cycles (leak of %d)",
				i, t, horizon, int64(horizon)-int64(t))
		}
	}
	return nil
}
