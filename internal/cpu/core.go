// Package cpu models the simple in-order cores of the simulated CMP
// (Table 2: 64 in-order cores, 1-cycle L1). A core interprets a micro-op
// program: ALU ops and taken branches cost one cycle, Compute ops model
// local work, and memory ops block until the L1 port responds — exactly
// one outstanding memory operation per core, matching the paper's
// blocking racy operations ("no later _through operation or atomic can be
// initiated until they complete", Section 3.2).
package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/sim"
)

// Config holds per-core execution parameters.
type Config struct {
	// BackoffBase is the initial exponential back-off interval in
	// QUARTER cycles: the wait before the k-th consecutive retry is
	// max(1, BackoffBase<<min(k, limit) / 4) cycles. Sub-cycle base
	// units let the first few retries poll nearly back-to-back, the
	// way tuned back-off implementations behave, while the ceiling
	// still grows by the paper's "number of exponentiations".
	BackoffBase uint64
	// BackoffLimit is the number of exponentiations before the
	// interval ceiling. A limit of 0 models the paper's BackOff-0,
	// i.e. direct LLC spinning with no delay.
	BackoffLimit int
}

// DefaultConfig mirrors the tuning used for the paper's BackOff-N
// configurations; only the limit varies between them.
func DefaultConfig(limit int) Config {
	return Config{BackoffBase: 1, BackoffLimit: limit}
}

// Stats aggregates a core's execution counters.
type Stats struct {
	Instructions  uint64
	MemOps        uint64
	ComputeCycles uint64
	BackoffCycles uint64
	// MemStallCycles is time spent blocked on memory responses that
	// took at least IdleGateThreshold cycles — stalls long enough to
	// clock-gate through (blocked callbacks, LLC round trips, monitor
	// halts), the Section 2.1 power-saving opportunity the paper leaves
	// to future work. Short L1-hit stalls (busy spinning) do not count.
	MemStallCycles uint64
	DoneAt         uint64 // cycle the Done op executed

	// SyncCycles and SyncEntries attribute time to synchronization
	// phases by kind (innermost marker wins when phases nest).
	SyncCycles  [isa.NumSyncKinds]uint64
	SyncEntries [isa.NumSyncKinds]uint64
	// StaleResponses counts callback reads answered by a directory
	// eviction rather than a write.
	StaleResponses uint64
}

// Core is one simulated in-order processor.
type Core struct {
	k    *sim.Kernel
	id   memtypes.NodeID
	port memtypes.Port
	cfg  Config

	// prog is the loaded program: immutable input, not evolving state.
	// The digest deliberately skips it — hashing the program text would
	// only re-hash the loader argument (see digest.go).
	//cbvet:ephemeral immutable program text, deliberately excluded from digests
	prog *isa.Program
	regs [isa.NumRegs]uint64
	pc   int

	// isPrivate classifies addresses as thread-private (excluded from
	// coherence by the self-invalidation protocols).
	isPrivate func(memtypes.Addr) bool

	backoffCount int
	syncStack    []syncFrame
	started      bool
	done         bool
	onDone       func(*Core)

	// The memory operation in flight. The core owns req and reuses it for
	// every operation (see memtypes.Port); memRd, memLoad and issuedAt are
	// what Complete needs to retire the operation.
	req      memtypes.Request
	memRd    isa.Reg
	memLoad  bool
	issuedAt uint64

	// observer, when set, receives synchronization-phase and spin-wait
	// events for tracing: "sync.begin"/"sync.end" (note = kind name, arg =
	// episode cycles on end) and "spin.wait" (arg = wait cycles). The hook
	// is observational only — it must not change timing.
	observer func(cycle uint64, what, note string, arg uint64)

	// cyc, when set, receives cycle-accounting events (retired batches,
	// backoff waits, memory-stall boundaries). Observational only, like
	// observer.
	cyc cycles.Hook

	stats Stats
}

type syncFrame struct {
	kind  isa.SyncKind
	start uint64
}

// New creates a core with the given ID attached to an L1 port. classify
// may be nil, meaning no address is private. onDone may be nil.
func New(k *sim.Kernel, id memtypes.NodeID, port memtypes.Port, cfg Config,
	classify func(memtypes.Addr) bool, onDone func(*Core)) *Core {
	if classify == nil {
		classify = func(memtypes.Addr) bool { return false }
	}
	return &Core{k: k, id: id, port: port, cfg: cfg, isPrivate: classify, onDone: onDone}
}

// ID returns the core's node ID.
func (c *Core) ID() memtypes.NodeID { return c.id }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Done reports whether the core has executed its Done op.
func (c *Core) Done() bool { return c.done }

// Reg returns the current value of register r (for tests and examples).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// PC returns the current program counter (diagnostics).
func (c *Core) PC() int { return c.pc }

// CurrentInstr returns the instruction at the PC, or nil when no program
// is loaded or the core finished (diagnostics).
func (c *Core) CurrentInstr() *isa.Instr {
	if c.prog == nil || c.done || c.pc < 0 || c.pc >= c.prog.Len() {
		return nil
	}
	return &c.prog.Ins[c.pc]
}

// SetReg presets a register before Start (program arguments: thread ID,
// structure base addresses...).
func (c *Core) SetReg(r isa.Reg, v uint64) { c.regs[r] = v }

// SetObserver installs a tracing hook for sync phases and spin waits
// (nil disables).
func (c *Core) SetObserver(fn func(cycle uint64, what, note string, arg uint64)) {
	c.observer = fn
}

// SetCyclesObserver installs the cycle-accounting hook (nil disables).
func (c *Core) SetCyclesObserver(fn cycles.Hook) { c.cyc = fn }

// curKind is the innermost synchronization phase the core is in.
func (c *Core) curKind() isa.SyncKind {
	if n := len(c.syncStack); n > 0 {
		return c.syncStack[n-1].kind
	}
	return isa.SyncNone
}

// flushExec reports the batch cycles retired since the last flush to the
// cycle-accounting hook, attributed to the current innermost sync phase.
func (c *Core) flushExec(elapsed uint64, rep *uint64) {
	if c.cyc == nil || elapsed == *rep {
		return
	}
	c.cyc(int(c.id), cycles.EvExec, 0, elapsed-*rep, uint64(c.curKind()))
	*rep = elapsed
}

// Run assigns prog and schedules the core to begin at the given delay.
func (c *Core) Run(prog *isa.Program, delay uint64) {
	if c.started {
		panic(fmt.Sprintf("cpu: core %d started twice", c.id))
	}
	if prog.Len() == 0 {
		panic("cpu: empty program")
	}
	c.prog = prog
	c.started = true
	c.k.ScheduleActor(delay, c, nil, stageStep)
}

// Core event stages: the arg of the kernel events the core schedules on
// itself.
const (
	stageStep  = iota // resume executing instructions
	stageIssue        // issue the memory request built by issueMem
	stageDone         // report completion to onDone
)

// Act implements sim.Actor. Scheduling the core itself with a stage
// number keeps instruction batches and memory issue free of closure
// allocations.
//
//cbsim:hotpath
func (c *Core) Act(_ any, stage uint64) {
	switch stage {
	case stageStep:
		c.step()
	case stageIssue:
		c.issue()
	case stageDone:
		c.onDone(c)
	default:
		panic(fmt.Sprintf("cpu: core %d unknown stage %d", c.id, stage))
	}
}

// IdleGateThreshold is the minimum memory stall, in cycles, that counts
// as clock-gate-able idle time (shorter stalls cannot realistically be
// gated).
const IdleGateThreshold = 16

// maxBatch bounds how many back-to-back non-memory ops execute inside one
// event before yielding to the kernel, so runaway ALU loops cannot stall
// the simulation.
const maxBatch = 4096

// step executes instructions until the core blocks on memory, waits, or
// finishes.
func (c *Core) step() {
	var elapsed uint64 // cycles consumed within this batch
	var rep uint64     // cycles of this batch already flushed to c.cyc
	for n := 0; ; n++ {
		if n >= maxBatch {
			c.flushExec(elapsed, &rep)
			c.k.ScheduleActor(elapsed, c, nil, stageStep)
			return
		}
		if c.pc < 0 || c.pc >= c.prog.Len() {
			panic(fmt.Sprintf("cpu: core %d pc %d out of range", c.id, c.pc))
		}
		in := &c.prog.Ins[c.pc]
		c.stats.Instructions++
		switch in.Op {
		case isa.Nop:
			elapsed++
			c.pc++
		case isa.Imm:
			c.regs[in.Rd] = in.ImmVal
			elapsed++
			c.pc++
		case isa.Mov:
			c.regs[in.Rd] = c.regs[in.Rs]
			elapsed++
			c.pc++
		case isa.Add:
			c.regs[in.Rd] = c.regs[in.Rs] + c.regs[in.Rt]
			elapsed++
			c.pc++
		case isa.Addi:
			c.regs[in.Rd] = c.regs[in.Rs] + in.ImmVal
			elapsed++
			c.pc++
		case isa.Sub:
			c.regs[in.Rd] = c.regs[in.Rs] - c.regs[in.Rt]
			elapsed++
			c.pc++
		case isa.Xori:
			c.regs[in.Rd] = c.regs[in.Rs] ^ in.ImmVal
			elapsed++
			c.pc++
		case isa.Beq:
			c.branch(in, c.regs[in.Rs] == c.regs[in.Rt])
			elapsed++
		case isa.Bne:
			c.branch(in, c.regs[in.Rs] != c.regs[in.Rt])
			elapsed++
		case isa.Beqi:
			c.branch(in, c.regs[in.Rs] == in.ImmVal)
			elapsed++
		case isa.Bnei:
			c.branch(in, c.regs[in.Rs] != in.ImmVal)
			elapsed++
		case isa.Jmp:
			c.pc = in.Target
			elapsed++
		case isa.Compute:
			c.stats.ComputeCycles += in.ImmVal
			elapsed += in.ImmVal
			c.pc++
		case isa.ComputeR:
			cycles := c.regs[in.Rs]
			c.stats.ComputeCycles += cycles
			elapsed += cycles
			c.pc++
		case isa.SyncBegin:
			kind := isa.SyncKind(in.ImmVal)
			c.flushExec(elapsed, &rep) // cycles so far belong to the outer phase
			c.syncStack = append(c.syncStack, syncFrame{
				kind:  kind,
				start: c.k.Now() + elapsed,
			})
			if c.observer != nil {
				c.observer(c.k.Now()+elapsed, "sync.begin", kind.String(), 0)
			}
			c.pc++
		case isa.SyncEnd:
			if len(c.syncStack) == 0 {
				panic(fmt.Sprintf("cpu: core %d SyncEnd without SyncBegin", c.id))
			}
			c.flushExec(elapsed, &rep) // cycles so far belong to the ending phase
			top := c.syncStack[len(c.syncStack)-1]
			c.syncStack = c.syncStack[:len(c.syncStack)-1]
			if top.kind != isa.SyncKind(in.ImmVal) {
				panic(fmt.Sprintf("cpu: core %d sync marker mismatch: begin %s end %s",
					c.id, top.kind, isa.SyncKind(in.ImmVal)))
			}
			c.stats.SyncCycles[top.kind] += c.k.Now() + elapsed - top.start
			c.stats.SyncEntries[top.kind]++
			if c.observer != nil {
				c.observer(c.k.Now()+elapsed, "sync.end", top.kind.String(),
					c.k.Now()+elapsed-top.start)
			}
			c.pc++
		case isa.BackoffReset:
			c.backoffCount = 0
			c.pc++
		case isa.BackoffWait:
			c.pc++
			wait := c.backoffInterval()
			c.stats.BackoffCycles += wait
			if c.observer != nil {
				c.observer(c.k.Now()+elapsed, "spin.wait", "", wait)
			}
			c.flushExec(elapsed, &rep)
			if c.cyc != nil && wait > 0 {
				c.cyc(int(c.id), cycles.EvWait, 0, wait, uint64(c.curKind()))
			}
			c.k.ScheduleActor(elapsed+wait, c, nil, stageStep)
			return
		case isa.Done:
			c.done = true
			c.stats.DoneAt = c.k.Now() + elapsed
			if len(c.syncStack) != 0 {
				panic(fmt.Sprintf("cpu: core %d finished inside a sync phase", c.id))
			}
			c.flushExec(elapsed, &rep)
			if c.cyc != nil {
				c.cyc(int(c.id), cycles.EvDone, c.stats.DoneAt, 0, 0)
			}
			if c.onDone != nil {
				c.k.ScheduleActor(elapsed, c, nil, stageDone)
			}
			return
		default:
			if !in.Op.IsMem() {
				panic(fmt.Sprintf("cpu: core %d unknown opcode %s", c.id, in.Op))
			}
			c.flushExec(elapsed, &rep)
			c.issueMem(in, elapsed)
			return
		}
	}
}

func (c *Core) branch(in *isa.Instr, taken bool) {
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
}

// backoffInterval returns the wait before the next retry and advances the
// exponentiation count.
func (c *Core) backoffInterval() uint64 {
	if c.cfg.BackoffLimit <= 0 {
		return 0 // BackOff-0: direct LLC spinning
	}
	k := c.backoffCount
	if k > c.cfg.BackoffLimit {
		k = c.cfg.BackoffLimit
	} else {
		c.backoffCount++
	}
	iv := c.cfg.BackoffBase << k / 4
	if iv == 0 {
		iv = 1
	}
	return iv
}

// issueMem builds the memory request for in into the core's reusable
// Request and issues it after the batch's elapsed cycles; Complete
// resumes execution when the port responds.
//
//cbsim:hotpath
func (c *Core) issueMem(in *isa.Instr, elapsed uint64) {
	c.stats.MemOps++
	req := &c.req
	*req = memtypes.Request{Core: c.id, Sync: len(c.syncStack) > 0, Serial: c.stats.MemOps}
	if n := len(c.syncStack); n > 0 {
		req.SyncKind = uint8(c.syncStack[n-1].kind)
	}
	switch in.Op {
	case isa.Ld:
		req.Kind = memtypes.OpRead
	case isa.St:
		req.Kind = memtypes.OpWrite
		req.Value = c.regs[in.Rs]
	case isa.LdT:
		req.Kind = memtypes.OpReadThrough
	case isa.LdCB:
		req.Kind = memtypes.OpReadCB
	case isa.StT:
		req.Kind = memtypes.OpWriteThrough
		req.Value = c.regs[in.Rs]
	case isa.StCB1:
		req.Kind = memtypes.OpWriteCB1
		req.Value = c.regs[in.Rs]
	case isa.StCB0:
		req.Kind = memtypes.OpWriteCB0
		req.Value = c.regs[in.Rs]
	case isa.RMW:
		req.Kind = memtypes.OpRMW
		req.RMW = in.RMWOp
		req.RMWLdCB = in.RMWLdCB
		req.RMWSt = in.RMWSt
		req.Expect = in.Expect
		if in.ArgIsReg {
			req.Arg = c.regs[in.ArgReg]
		} else {
			req.Arg = in.ArgImm
		}
	case isa.SelfInvl:
		req.Kind = memtypes.OpFenceSelfInvl
	case isa.SelfDown:
		req.Kind = memtypes.OpFenceSelfDown
	default:
		panic(fmt.Sprintf("cpu: issueMem on %s", in.Op))
	}
	if req.Kind != memtypes.OpFenceSelfInvl && req.Kind != memtypes.OpFenceSelfDown {
		req.Addr = memtypes.Addr(c.regs[in.Base] + uint64(in.Offset))
		req.Private = c.isPrivate(req.Addr)
	}
	c.memRd = in.Rd
	c.memLoad = in.Op == isa.Ld || in.Op == isa.LdT || in.Op == isa.LdCB || in.Op == isa.RMW
	if elapsed == 0 {
		c.issue()
	} else {
		c.k.ScheduleActor(elapsed, c, nil, stageIssue)
	}
}

// issue hands the built request to the port.
//
//cbsim:hotpath
func (c *Core) issue() {
	c.issuedAt = c.k.Now()
	if c.cyc != nil {
		c.cyc(int(c.id), cycles.EvStallBegin, c.issuedAt,
			uint64(c.req.SyncKind), uint64(stallCategory(c.req.Kind)))
	}
	c.port.Access(&c.req, c)
}

// Complete implements memtypes.Completer: it retires the memory operation
// in flight and resumes execution.
//
//cbsim:hotpath
func (c *Core) Complete(resp memtypes.Response) {
	if c.cyc != nil {
		c.cyc(int(c.id), cycles.EvStallEnd, c.k.Now(), 0, 0)
	}
	if stall := c.k.Now() - c.issuedAt; stall >= IdleGateThreshold {
		c.stats.MemStallCycles += stall
	}
	if c.memLoad {
		c.regs[c.memRd] = resp.Value
	}
	if resp.Stale {
		c.stats.StaleResponses++
	}
	c.pc++
	c.step()
}

// stallCategory picks the fallback attribution for parts of a memory
// stall no memory-system component claims: cached ops resolve in the
// private L1, racy/through ops at the LLC, fences in the coherence
// machinery.
func stallCategory(k memtypes.OpKind) cycles.Category {
	switch k {
	case memtypes.OpRead, memtypes.OpWrite:
		return cycles.CatL1Stall
	case memtypes.OpFenceSelfInvl, memtypes.OpFenceSelfDown:
		return cycles.CatCoherenceStall
	}
	return cycles.CatLLCStall
}
