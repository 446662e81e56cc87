package verify

import (
	"repro/internal/isa"
	"repro/internal/memtypes"
)

// absVal is an abstract register value.
//
// The domain is deliberately small: programs built by synclib/workload
// form addresses with imm constants (vRange with lo == hi) or by
// loading a pointer from memory (the CLH lock's queue nodes, vLoaded).
// Arithmetic stays in the interval domain; anything else collapses to
// vUnknown.
//
// A vRange is [lo,hi] with lo <= hi. The other kinds store their kind in
// lo and zero in hi, so a value fits 16 bytes and equal values compare
// equal.
type absVal struct {
	lo, hi uint64
}

const (
	// vRange is a closed interval [lo,hi] (a constant when lo == hi).
	vRange uint8 = iota
	// vLoaded is a value read from memory (a runtime pointer).
	vLoaded
	// vUnknown is the top element.
	vUnknown
)

func vConst(c uint64) absVal { return absVal{lo: c, hi: c} }
func loaded() absVal         { return absVal{lo: uint64(vLoaded)} }
func unknown() absVal        { return absVal{lo: uint64(vUnknown)} }

func (a absVal) kind() uint8 {
	if a.lo <= a.hi {
		return vRange
	}
	return uint8(a.lo)
}

func (a absVal) isConst() bool { return a.lo == a.hi }

// joinVal merges two abstract values. widen collapses a growing
// interval straight to vUnknown so the fixpoint terminates.
func joinVal(a, b absVal, widen bool) absVal {
	if a == b {
		return a
	}
	if a.kind() == vUnknown || b.kind() == vUnknown || a.kind() != b.kind() {
		return unknown()
	}
	if a.kind() == vLoaded {
		return loaded()
	}
	nlo, nhi := a.lo, a.hi
	if b.lo < nlo {
		nlo = b.lo
	}
	if b.hi > nhi {
		nhi = b.hi
	}
	if widen || nhi-nlo > 1<<32 {
		return unknown()
	}
	return absVal{lo: nlo, hi: nhi}
}

// absState is the abstract machine state at one program point.
type absState struct {
	regs [isa.NumRegs]absVal

	// syncStack is the stack of open sync_begin kinds.
	syncStack [maxSyncDepth]isa.SyncKind
	syncDepth int

	// hold is the net completed acquire-release balance (locks held).
	hold int
	// barriers is the number of completed barrier episodes, or -1 when
	// path-dependent.
	barriers int
}

func entryState() absState {
	var s absState
	for i := range s.regs {
		s.regs[i] = vConst(0)
	}
	return s
}

// join merges other into s, reporting whether s changed. Structural
// sync mismatches (different stacks or lock balances on two paths into
// the same instruction) are diagnosed once by the caller via the
// returned flags; the merge keeps s's stack and the minimum hold so the
// fixpoint still converges.
func (s *absState) join(other *absState, widen bool) (changed, stackMismatch, holdMismatch bool) {
	for i := range s.regs {
		nv := joinVal(s.regs[i], other.regs[i], widen)
		if nv != s.regs[i] {
			s.regs[i] = nv
			changed = true
		}
	}
	if s.syncDepth != other.syncDepth {
		stackMismatch = true
	} else {
		for i := 0; i < s.syncDepth; i++ {
			if s.syncStack[i] != other.syncStack[i] {
				stackMismatch = true
				break
			}
		}
	}
	if s.hold != other.hold {
		holdMismatch = true
		if other.hold < s.hold {
			s.hold = other.hold
			changed = true
		}
	}
	if s.barriers != other.barriers && s.barriers != -1 {
		s.barriers = -1
		changed = true
	}
	return changed, stackMismatch, holdMismatch
}

// fixpoint runs the worklist abstract interpretation from instruction 0.
// The worklist is a FIFO ring over v.work: a pc is queued at most once
// at a time, so n slots always suffice. Each visit transfers a scratch
// copy of in[pc], so no state is allocated.
func (v *verifier) fixpoint() {
	v.in[0] = entryState()
	v.reached[0] = true
	work := v.work
	work[0] = 0
	v.inWork[0] = true
	for head, size := 0, 1; size > 0; size-- {
		pc := work[head]
		if head++; head == v.n {
			head = 0
		}
		v.inWork[pc] = false
		v.visits[pc]++
		widen := v.visits[pc] > 64

		v.cur = v.in[pc]
		outs, nout := v.transfer(pc, &v.cur)
		for _, o := range outs[:nout] {
			succ := o.pc
			if !v.reached[succ] {
				v.in[succ] = *o.state
				v.reached[succ] = true
			} else {
				changed, stackMM, holdMM := v.in[succ].join(o.state, widen)
				if stackMM {
					v.diag(succ, "sync", "inconsistent sync nesting: paths reach this instruction with different open sync phases")
				}
				if holdMM {
					v.diag(succ, "sync", "inconsistent acquire/release balance: paths reach this instruction holding different lock counts")
				}
				if !changed {
					continue
				}
			}
			if !v.inWork[succ] {
				work[(head+size-1)%v.n] = succ
				size++
				v.inWork[succ] = true
			}
		}
	}
}

// edgeOut is one outgoing CFG edge with the abstract state flowing
// along it (branch edges refine the tested register).
type edgeOut struct {
	pc    int
	state *absState
}

// transfer applies instruction pc to state s (which it may mutate) and
// returns the outgoing edges, outs[:nout]. It also performs the
// per-instruction memory and sync checks.
func (v *verifier) transfer(pc int, s *absState) (outs [2]edgeOut, nout int) {
	in := v.p.At(pc)

	// Blocking operations must sit inside a synchronization region.
	blocking := in.Op == isa.LdCB || in.Op == isa.BackoffWait ||
		(in.Op == isa.RMW && in.RMWLdCB)
	if blocking && s.syncDepth == 0 {
		v.diag(pc, "sync", "blocking %s outside a synchronization region", in.Op)
	}
	if v.opts.Mode == ModeStrict && (in.Op == isa.LdCB || (in.Op == isa.RMW && in.RMWLdCB)) {
		v.diag(pc, "bound", "blocking callback read cannot be proven bounded in strict mode")
	}
	if v.opts.Mode == ModeStrict && in.Op == isa.Compute && in.ImmVal > MaxComputeCycles {
		v.diag(pc, "bound", "compute of %d cycles exceeds the strict-mode cap of %d", in.ImmVal, MaxComputeCycles)
	}

	// Memory safety.
	if in.Op.IsMem() && in.Op != isa.SelfInvl && in.Op != isa.SelfDown {
		v.checkAccess(pc, in, s)
	}

	switch in.Op {
	case isa.Imm:
		s.regs[in.Rd] = vConst(in.ImmVal)
	case isa.Mov:
		s.regs[in.Rd] = s.regs[in.Rs]
	case isa.Add:
		s.regs[in.Rd] = addVals(s.regs[in.Rs], s.regs[in.Rt], false)
	case isa.Sub:
		s.regs[in.Rd] = addVals(s.regs[in.Rs], s.regs[in.Rt], true)
	case isa.Addi:
		s.regs[in.Rd] = addConst(s.regs[in.Rs], in.ImmVal)
	case isa.Xori:
		s.regs[in.Rd] = xorConst(s.regs[in.Rs], in.ImmVal)
	case isa.Ld, isa.LdT, isa.LdCB, isa.RMW:
		s.regs[in.Rd] = loaded()
	case isa.ComputeR:
		if rv := s.regs[in.Rs]; rv.kind() != vRange || rv.hi > MaxComputeCycles {
			v.diag(pc, "bound", "computer's cycle count (r%d) has no provable bound <= %d", in.Rs, MaxComputeCycles)
		}
	case isa.SyncBegin:
		if s.syncDepth >= maxSyncDepth {
			v.diag(pc, "sync", "sync nesting deeper than %d", maxSyncDepth)
		} else {
			s.syncStack[s.syncDepth] = isa.SyncKind(in.ImmVal)
			s.syncDepth++
		}
	case isa.SyncEnd:
		k := isa.SyncKind(in.ImmVal)
		if s.syncDepth == 0 {
			v.diag(pc, "sync", "sync_end %s without a matching sync_begin", k)
		} else {
			top := s.syncStack[s.syncDepth-1]
			if top != k {
				v.diag(pc, "sync", "sync_end %s closes a %s phase", k, top)
			}
			s.syncDepth--
			switch top {
			case isa.SyncAcquire:
				s.hold++
			case isa.SyncRelease:
				s.hold--
				if s.hold < 0 {
					v.diag(pc, "sync", "release completed without a matching held acquire")
					s.hold = 0
				}
			case isa.SyncBarrier:
				if s.barriers >= 0 {
					s.barriers++
				}
			}
		}
	case isa.Done:
		if s.syncDepth > 0 {
			v.diag(pc, "sync", "done inside an open %s phase", s.syncStack[s.syncDepth-1])
		}
		if s.hold > 0 {
			v.diag(pc, "sync", "thread exits still holding %d lock(s): unpaired acquire", s.hold)
		}
		switch {
		case v.doneBarriers == -2:
			v.doneBarriers = s.barriers
		case v.doneBarriers != s.barriers:
			v.doneBarriers = -1
		}
	}

	// Successor states, with branch refinement: on the edge where a
	// Beqi/Bnei's condition pins the register to its immediate, the
	// register becomes that constant. Each edge of a two-way branch
	// refines its own copy: the first takes v.alt, the second s.
	switch in.Op {
	case isa.Done:
	case isa.Jmp:
		outs[0], nout = edgeOut{in.Target, s}, 1
	case isa.Beqi, isa.Bnei:
		var succ [2]int
		succ, nout = v.successors(pc)
		for i, sp := range succ[:nout] {
			es := s
			if nout > 1 && i == 0 {
				v.alt = *s
				es = &v.alt
			}
			eqEdge := (in.Op == isa.Beqi && sp == in.Target && sp != pc+1) ||
				(in.Op == isa.Bnei && sp == pc+1 && sp != in.Target)
			if eqEdge && es.regs[in.Rs].kind() != vUnknown {
				es.regs[in.Rs] = vConst(in.ImmVal)
			}
			outs[i] = edgeOut{sp, es}
		}
	default:
		var succ [2]int
		succ, nout = v.successors(pc)
		for i, sp := range succ[:nout] {
			outs[i] = edgeOut{sp, s}
		}
	}
	return outs, nout
}

func addVals(a, b absVal, sub bool) absVal {
	if a.kind() != vRange || b.kind() != vRange {
		return unknown()
	}
	if sub {
		lo := a.lo - b.hi
		hi := a.hi - b.lo
		if (lo > a.lo) != (hi > a.hi) || lo > hi {
			return unknown()
		}
		return absVal{lo: lo, hi: hi}
	}
	lo := a.lo + b.lo
	hi := a.hi + b.hi
	if (lo < a.lo) != (hi < a.hi) || lo > hi {
		return unknown()
	}
	return absVal{lo: lo, hi: hi}
}

func addConst(a absVal, imm uint64) absVal {
	if a.kind() != vRange {
		return unknown()
	}
	lo, hi := a.lo+imm, a.hi+imm
	if (lo < a.lo) != (hi < a.hi) || lo > hi {
		// The interval wraps around 2^64 non-uniformly.
		return unknown()
	}
	return absVal{lo: lo, hi: hi}
}

func xorConst(a absVal, imm uint64) absVal {
	if a.kind() != vRange {
		return unknown()
	}
	if a.isConst() {
		return vConst(a.lo ^ imm)
	}
	// Small intervals (sense registers toggling in [0,1]) are folded by
	// enumeration; anything larger is not worth modelling.
	if a.hi-a.lo <= 8 {
		lo, hi := a.lo^imm, a.lo^imm
		for c := a.lo; ; c++ {
			x := c ^ imm
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			if c == a.hi {
				break
			}
		}
		return absVal{lo: lo, hi: hi}
	}
	return unknown()
}

// checkAccess proves one memory access lands inside the footprint.
func (v *verifier) checkAccess(pc int, in *isa.Instr, s *absState) {
	fp := v.opts.Footprint
	if fp == nil {
		return
	}
	base := s.regs[in.Base]
	switch base.kind() {
	case vUnknown:
		v.diag(pc, "memory", "address base r%d is statically unknown", in.Base)
	case vLoaded:
		if !fp.AllowIndirect {
			v.diag(pc, "memory", "indirect access through pointer in r%d, but the footprint does not allow indirection", in.Base)
			return
		}
		if in.Offset < 0 || in.Offset >= memtypes.LineBytes {
			v.diag(pc, "memory", "indirect access offset %d outside the pointee's cache line [0,%d)", in.Offset, memtypes.LineBytes)
		}
	case vRange:
		lo := base.lo + uint64(in.Offset)
		hi := base.hi + uint64(in.Offset)
		if (lo < base.lo) != (hi < base.hi) || lo > hi {
			v.diag(pc, "memory", "effective address wraps the address space")
			return
		}
		// A word access touches [ea, ea+WordBytes).
		last := hi + memtypes.WordBytes - 1
		if last < hi {
			v.diag(pc, "memory", "effective address wraps the address space")
			return
		}
		if !fp.Covers(lo, last) {
			v.diag(pc, "memory", "access [0x%x,0x%x] is outside the declared footprint %s", lo, last, fp)
		}
	}
}
