package verify

import (
	"repro/internal/isa"
)

// analyzeLoops classifies every control-flow cycle of the reachable CFG
// and computes the worst-case cycle Budget.
//
// Cycles are found as the non-trivial strongly connected components of
// the reachable instruction graph. Each one must be either:
//
//   - a sync-guarded spin loop: it contains a memory operation (or
//     backoff_wait) executing inside a sync region, so the protocol's
//     forward-progress rules own its termination (trusted mode only);
//   - a counted loop: a single conditional exit branch testing a
//     register against an immediate, with that register updated by
//     exactly one addi inside the loop and entering the loop as a
//     known constant — from which a trip bound follows.
//
// The Budget multiplies each instruction's latency bound by the trip
// bound of every counted loop containing it; sync-guarded spin bodies
// are charged once (the spin itself is the protocol's cost, reported
// separately as SpinSites).
func (v *verifier) analyzeLoops() {
	lb := &v.loops
	lb.build(v)
	v.sccs()

	factor := resize(lb.factor, v.n)
	lb.factor = factor
	for i := range factor {
		factor[i] = 1
	}
	lo := 0
	for id, hi := range lb.sccEnd {
		scc := lb.members[lo:hi]
		lo = hi
		if !lb.isCycle(scc) {
			continue
		}
		if v.isSyncGuarded(scc) {
			v.report.SpinSites++
			if v.opts.Mode == ModeStrict {
				v.diag(scc[0], "bound", "spin loop cannot be proven bounded in strict mode")
			}
			continue
		}
		trips, ok := v.tripBound(scc, id)
		if !ok {
			v.diag(scc[0], "bound", "unbounded loop: neither sync-guarded nor carrying a provable trip bound")
			continue
		}
		if trips > MaxTrips {
			v.diag(scc[0], "bound", "loop trip bound %d exceeds the %d cap", trips, MaxTrips)
			continue
		}
		for _, pc := range scc {
			factor[pc] = satMul(factor[pc], trips)
		}
	}

	var budget uint64
	for pc := 0; pc < v.n; pc++ {
		if !v.reached[pc] {
			continue
		}
		in := v.p.At(pc)
		if in.Op.IsMem() {
			v.report.MemOps++
		}
		budget = satAdd(budget, satMul(v.instrCost(in), factor[pc]))
	}
	v.report.Budget = budget
}

// loopBufs is analyzeLoops' working memory, kept across the programs
// one verifier checks.
type loopBufs struct {
	// The reachable CFG in CSR form: pc's successors are
	// succ[succOff[pc]:succOff[pc+1]], its predecessors
	// pred[predOff[pc]:predOff[pc+1]] in ascending order.
	succOff, succ []int
	predOff, pred []int

	// sccOf is each reachable pc's SCC id, -1 for the rest. SCC id's
	// members are members[sccEnd[id-1]:sccEnd[id]], its DFS root first.
	sccOf, members, sccEnd []int

	// Tarjan's working state.
	index, low, stack []int
	onStack           []bool
	frames            []tarjanFrame

	factor []uint64
}

// reserve gives the buffers room for a CFG of n instructions, each with
// at most two successors.
func (lb *loopBufs) reserve(n int) {
	lb.succOff = resize(lb.succOff, n+1)
	lb.predOff = resize(lb.predOff, n+1)
	lb.succ = resize(lb.succ, 2*n)
	lb.pred = resize(lb.pred, 2*n)
	lb.sccOf = resize(lb.sccOf, n)
	lb.members = resize(lb.members, n)
	lb.sccEnd = resize(lb.sccEnd, n)
	lb.index = resize(lb.index, n)
	lb.low = resize(lb.low, n)
	lb.stack = resize(lb.stack, n)
	lb.onStack = resize(lb.onStack, n)
	lb.frames = resize(lb.frames, n)
	lb.factor = resize(lb.factor, n)
}

type tarjanFrame struct {
	pc, si int // si indexes succ
}

// build fills the successor and predecessor lists of v's reachable CFG.
func (lb *loopBufs) build(v *verifier) {
	n := v.n
	lb.succOff = resize(lb.succOff, n+1)
	lb.succ = lb.succ[:0]
	for pc := 0; pc < n; pc++ {
		lb.succOff[pc] = len(lb.succ)
		if v.reached[pc] {
			succ, k := v.successors(pc)
			lb.succ = append(lb.succ, succ[:k]...)
		}
	}
	lb.succOff[n] = len(lb.succ)

	// Count in-degrees, turn them into list ends, then fill each list
	// back to front so it ends up ascending and predOff[pc] its start.
	lb.predOff = zeroed(lb.predOff, n+1)
	for _, s := range lb.succ {
		lb.predOff[s]++
	}
	for pc := 1; pc <= n; pc++ {
		lb.predOff[pc] += lb.predOff[pc-1]
	}
	lb.pred = resize(lb.pred, len(lb.succ))
	for pc := n - 1; pc >= 0; pc-- {
		for _, s := range lb.succ[lb.succOff[pc]:lb.succOff[pc+1]] {
			lb.predOff[s]--
			lb.pred[lb.predOff[s]] = pc
		}
	}
}

// instrCost over-approximates one execution of in, in cycles.
func (v *verifier) instrCost(in *isa.Instr) uint64 {
	switch {
	case in.Op == isa.Compute:
		return satAdd(in.ImmVal, 1)
	case in.Op == isa.ComputeR:
		// Bounded by the strict-mode cap; an unprovable bound was
		// already diagnosed in the transfer function.
		return MaxComputeCycles + 1
	case in.Op == isa.BackoffWait:
		return BackoffWaitBound
	case in.Op.IsMem():
		return MemLatencyBound
	default:
		return 1
	}
}

// sccs finds the strongly connected components of the reachable CFG
// (iterative Tarjan), in deterministic order, into v.loops.
func (v *verifier) sccs() {
	lb := &v.loops
	const unvisited = -1
	index := resize(lb.index, v.n)
	low := resize(lb.low, v.n)
	sccOf := resize(lb.sccOf, v.n)
	onStack := zeroed(lb.onStack, v.n)
	lb.index, lb.low, lb.sccOf, lb.onStack = index, low, sccOf, onStack
	for i := range index {
		index[i] = unvisited
		sccOf[i] = -1
	}
	stack := lb.stack[:0]
	frames := lb.frames[:0]
	lb.members = lb.members[:0]
	lb.sccEnd = lb.sccEnd[:0]
	next := 0

	for start := 0; start < v.n; start++ {
		if !v.reached[start] || index[start] != unvisited {
			continue
		}
		frames = append(frames, tarjanFrame{start, lb.succOff[start]})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < lb.succOff[f.pc+1] {
				w := lb.succ[f.si]
				f.si++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, tarjanFrame{w, lb.succOff[w]})
				} else if onStack[w] && index[w] < low[f.pc] {
					low[f.pc] = index[w]
				}
				continue
			}
			pc := f.pc
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].pc; low[pc] < low[p] {
					low[p] = low[pc]
				}
			}
			if low[pc] == index[pc] {
				// The SCC is the stack from pc up, in push order, so its
				// DFS root comes first.
				k := len(stack) - 1
				for stack[k] != pc {
					k--
				}
				id := len(lb.sccEnd)
				for _, w := range stack[k:] {
					onStack[w] = false
					sccOf[w] = id
				}
				lb.members = append(lb.members, stack[k:]...)
				lb.sccEnd = append(lb.sccEnd, len(lb.members))
				stack = stack[:k]
			}
		}
	}
	lb.stack, lb.frames = stack, frames
}

// isCycle reports whether the SCC contains a control-flow cycle (more
// than one node, or a self edge).
func (lb *loopBufs) isCycle(scc []int) bool {
	if len(scc) > 1 {
		return true
	}
	pc := scc[0]
	for _, s := range lb.succ[lb.succOff[pc]:lb.succOff[pc+1]] {
		if s == pc {
			return true
		}
	}
	return false
}

// isSyncGuarded reports whether the loop blocks on memory inside a sync
// region: it contains a memory operation or backoff_wait whose abstract
// state has sync depth >= 1.
func (v *verifier) isSyncGuarded(scc []int) bool {
	for _, pc := range scc {
		in := v.p.At(pc)
		waits := in.Op == isa.BackoffWait ||
			(in.Op.IsMem() && in.Op != isa.SelfInvl && in.Op != isa.SelfDown)
		if waits && v.reached[pc] && v.in[pc].syncDepth >= 1 {
			return true
		}
	}
	return false
}

// tripBound proves a trip bound for a counted loop: the SCC must have
// exactly one conditional branch with an exit edge leaving the SCC,
// the exit condition must pin the tested register to an immediate
// (beqi taken-exit, or bnei falling out), the register must be updated
// by exactly one addi inside the SCC, and its value entering the SCC
// must be a known constant stepping exactly onto the exit value. id is
// the SCC's id in v.loops.sccOf.
func (v *verifier) tripBound(scc []int, id int) (uint64, bool) {
	lb := &v.loops
	sccOf := lb.sccOf

	// Find the exit branches.
	exitPC := -1
	exitOnEqual := false
	for _, pc := range scc {
		in := v.p.At(pc)
		switch in.Op {
		case isa.Beqi, isa.Bnei:
			taken, fall := in.Target, pc+1
			takenOut := sccOf[taken] != id
			fallOut := fall >= v.n || sccOf[fall] != id
			if !takenOut && !fallOut {
				continue
			}
			if exitPC >= 0 {
				return 0, false // multiple exits: give up
			}
			exitPC = pc
			// Exit on the edge where the condition pins rs == imm:
			// beqi leaving on its taken edge, or bnei falling out.
			exitOnEqual = (in.Op == isa.Beqi && takenOut) || (in.Op == isa.Bnei && fallOut)
		case isa.Beq, isa.Bne:
			taken, fall := in.Target, pc+1
			if sccOf[taken] != id || fall >= v.n || sccOf[fall] != id {
				return 0, false // register-register exit: no bound
			}
		case isa.Jmp, isa.Done:
		default:
			if pc+1 < v.n && sccOf[pc+1] != id {
				return 0, false // odd shape: fallthrough exit without branch
			}
		}
	}
	if exitPC < 0 || !exitOnEqual {
		return 0, false
	}
	br := v.p.At(exitPC)
	ctr := br.Rs
	exitVal := br.ImmVal

	// Exactly one update of the counter inside the loop, an addi with a
	// non-zero step.
	step := uint64(0)
	updates := 0
	for _, pc := range scc {
		in := v.p.At(pc)
		writes := false
		switch in.Op {
		case isa.Imm, isa.Mov, isa.Add, isa.Addi, isa.Sub, isa.Xori,
			isa.Ld, isa.LdT, isa.LdCB, isa.RMW:
			writes = in.Rd == ctr
		}
		if !writes {
			continue
		}
		updates++
		if in.Op != isa.Addi || in.Rs != ctr || in.ImmVal == 0 {
			return 0, false
		}
		step = in.ImmVal
	}
	if updates != 1 {
		return 0, false
	}

	// The counter's value entering the SCC from outside must be one
	// known constant on every entry edge.
	entry, haveEntry := uint64(0), false
	for _, s := range scc {
		for _, pc := range lb.pred[lb.predOff[s]:lb.predOff[s+1]] {
			if sccOf[pc] == id {
				continue
			}
			val := v.edgeValue(pc, s, ctr)
			if !val.isConst() {
				return 0, false
			}
			if haveEntry && val.lo != entry {
				return 0, false
			}
			entry, haveEntry = val.lo, true
		}
	}
	if !haveEntry {
		return 0, false
	}

	// Trips: entry steps by `step` (interpreted signed, mod 2^64) until
	// it equals exitVal. Depending on whether the exit test precedes or
	// follows the addi on the cycle, the first tested value is entry or
	// entry+step; trips+1 covers both shapes. entry == exitVal is
	// rejected: in a bottom-tested loop the counter would have to wrap
	// the whole 2^64 space to come back around.
	var trips uint64
	if sd := int64(step); sd > 0 {
		diff := exitVal - entry // modular
		if diff == 0 || diff%step != 0 {
			return 0, false // never lands exactly on the exit value
		}
		trips = diff / step
	} else {
		dd := uint64(-sd)
		diff := entry - exitVal // modular
		if diff == 0 || diff%dd != 0 {
			return 0, false
		}
		trips = diff / dd
	}
	if trips > MaxTrips {
		return trips, true // caller diagnoses the cap
	}
	return trips + 1, true
}

// edgeValue returns the abstract value of reg flowing along the CFG
// edge from pc to succ (re-running the transfer function without
// diagnostics).
func (v *verifier) edgeValue(pc, succ int, reg isa.Reg) absVal {
	in := v.p.At(pc)
	s := &v.in[pc]
	val := s.regs[reg]
	switch in.Op {
	case isa.Imm:
		if in.Rd == reg {
			val = vConst(in.ImmVal)
		}
	case isa.Mov:
		if in.Rd == reg {
			val = s.regs[in.Rs]
		}
	case isa.Add:
		if in.Rd == reg {
			val = addVals(s.regs[in.Rs], s.regs[in.Rt], false)
		}
	case isa.Sub:
		if in.Rd == reg {
			val = addVals(s.regs[in.Rs], s.regs[in.Rt], true)
		}
	case isa.Addi:
		if in.Rd == reg {
			val = addConst(s.regs[in.Rs], in.ImmVal)
		}
	case isa.Xori:
		if in.Rd == reg {
			val = xorConst(s.regs[in.Rs], in.ImmVal)
		}
	case isa.Ld, isa.LdT, isa.LdCB, isa.RMW:
		if in.Rd == reg {
			val = loaded()
		}
	case isa.Beqi:
		if in.Rs == reg && succ == in.Target && succ != pc+1 {
			val = vConst(in.ImmVal)
		}
	case isa.Bnei:
		if in.Rs == reg && succ == pc+1 && succ != in.Target {
			val = vConst(in.ImmVal)
		}
	}
	return val
}
