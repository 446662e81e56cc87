// Package isa defines the micro-op instruction set executed by the
// simulated in-order cores, mirroring the assembly of Figures 8-19 in the
// paper: ALU ops and branches, ordinary loads/stores, the racy
// ld_through/ld_cb/st_through/st_cb1/st_cb0 operations, atomics composed
// of {ld|ld_cb}&{st_cb0|st_cb1|st_cbA}, the self_invl/self_down fences,
// and the exponential back-off pseudo-ops used by the VIPS-M baseline.
//
// Programs are built with a Builder that supports symbolic labels, so the
// synchronization algorithms read almost line-for-line like the paper's
// figures.
package isa

import (
	"fmt"
	"sort"

	"repro/internal/memtypes"
)

// Reg names one of the 32 general-purpose registers of a simulated core.
type Reg uint8

// NumRegs is the register file size.
const NumRegs = 32

// Conventional register names used by the synchronization library.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Opcode enumerates the micro-op kinds.
type Opcode uint8

const (
	Nop Opcode = iota

	// ALU and control flow. All take 1 cycle.
	Imm      // rd <- imm
	Mov      // rd <- rs
	Add      // rd <- rs + rt
	Addi     // rd <- rs + imm
	Sub      // rd <- rs - rt
	Xori     // rd <- rs ^ imm (sense reversal: not $s == xori $s,1)
	Beq      // if rs == rt goto target
	Bne      // if rs != rt goto target
	Beqi     // if rs == imm goto target
	Bnei     // if rs != imm goto target
	Jmp      // goto target
	Compute  // advance imm cycles of local work
	ComputeR // advance rs cycles of local work

	// Memory operations. Effective address = regs[Base] + Offset.
	Ld    // rd <- mem (DRF cached load)
	St    // mem <- rs (DRF cached store)
	LdT   // rd <- mem, ld_through
	LdCB  // rd <- mem, ld_cb (blocks in the callback directory)
	StT   // mem <- rs, st_through (st_cbA)
	StCB1 // mem <- rs, st_cb1
	StCB0 // mem <- rs, st_cb0
	RMW   // rd <- old value; atomic per RMWOp/LdCB/StMode fields

	SelfInvl // acquire fence: self-invalidate shared L1 contents
	SelfDown // release fence: self-downgrade (write through) dirty L1 data

	// Back-off pseudo-ops for the VIPS-M LLC-spinning baseline.
	BackoffReset // reset this core's back-off interval
	BackoffWait  // stall for the current interval, then grow it

	// Sync phase markers for statistics attribution (not architectural).
	SyncBegin // imm = SyncKind
	SyncEnd   // imm = SyncKind

	Done // thread finished
)

var opcodeNames = [...]string{
	Nop: "nop", Imm: "imm", Mov: "mov", Add: "add", Addi: "addi",
	Sub: "sub", Xori: "xori", Beq: "beq", Bne: "bne", Beqi: "beqi",
	Bnei: "bnei", Jmp: "jmp", Compute: "compute", ComputeR: "computer",
	Ld: "ld", St: "st", LdT: "ld_through", LdCB: "ld_cb",
	StT: "st_through", StCB1: "st_cb1", StCB0: "st_cb0", RMW: "rmw",
	SelfInvl: "self_invl", SelfDown: "self_down",
	BackoffReset: "backoff_reset", BackoffWait: "backoff_wait",
	SyncBegin: "sync_begin", SyncEnd: "sync_end", Done: "done",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// IsMem reports whether the opcode accesses memory through the L1 port.
func (o Opcode) IsMem() bool {
	switch o {
	case Ld, St, LdT, LdCB, StT, StCB1, StCB0, RMW, SelfInvl, SelfDown:
		return true
	}
	return false
}

// SyncKind labels a synchronization phase for latency/LLC-access
// attribution (Figures 1 and 20).
type SyncKind uint8

const (
	SyncNone SyncKind = iota
	SyncAcquire
	SyncRelease
	SyncBarrier
	SyncWait
	SyncSignal
	NumSyncKinds
)

var syncKindNames = [...]string{
	SyncNone: "none", SyncAcquire: "acquire", SyncRelease: "release",
	SyncBarrier: "barrier", SyncWait: "wait", SyncSignal: "signal",
}

func (s SyncKind) String() string {
	if int(s) < len(syncKindNames) {
		return syncKindNames[s]
	}
	return fmt.Sprintf("SyncKind(%d)", uint8(s))
}

// Instr is one decoded micro-op. It holds no pointers: the one-byte
// fields come first and pack into the first 16 bytes, and a branch's
// symbolic target name lives in its Program (see Program.Disasm).
type Instr struct {
	Op Opcode

	Rd, Rs, Rt Reg
	Base       Reg // memory addressing: effective address = regs[Base] + Offset

	// RMW description (Op == RMW), with Expect and ArgImm below.
	RMWOp    memtypes.RMWOp
	RMWLdCB  bool             // load half is ld_cb
	RMWSt    memtypes.CBWrite // store half semantics
	ArgReg   Reg              // argument register (if ArgIsReg)
	ArgIsReg bool

	ImmVal uint64
	Target int // resolved branch target (instruction index)
	Offset int64
	Expect uint64 // expected value (t&s, cas)
	ArgImm uint64 // argument immediate (if !ArgIsReg)
}

// String disassembles the instruction, printing a branch target as
// @<target>; Program.Disasm prints the target's label name instead.
func (in Instr) String() string { return in.format("") }

// format disassembles the instruction, printing a branch target as name,
// or as @<target> when name is "".
func (in Instr) format(name string) string {
	switch in.Op {
	case Imm:
		return fmt.Sprintf("imm r%d, %d", in.Rd, in.ImmVal)
	case Beq, Bne:
		return fmt.Sprintf("%s r%d, r%d, %s", in.Op, in.Rs, in.Rt, in.targetText(name))
	case Beqi, Bnei:
		return fmt.Sprintf("%s r%d, %d, %s", in.Op, in.Rs, in.ImmVal, in.targetText(name))
	case Jmp:
		return fmt.Sprintf("jmp %s", in.targetText(name))
	case Ld, LdT, LdCB:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Offset, in.Base)
	case St, StT, StCB1, StCB0:
		return fmt.Sprintf("%s %d(r%d), r%d", in.Op, in.Offset, in.Base, in.Rs)
	case RMW:
		ld := "ld"
		if in.RMWLdCB {
			ld = "ld_cb"
		}
		return fmt.Sprintf("%s{%s&st_%s} r%d, %d(r%d)", in.RMWOp, ld, in.RMWSt, in.Rd, in.Offset, in.Base)
	default:
		return in.Op.String()
	}
}

func (in Instr) targetText(name string) string {
	if name == "" {
		return fmt.Sprintf("@%d", in.Target)
	}
	return name
}

// Program is an executable sequence of micro-ops. Each pc holds an index
// into an instruction table that every program built through the same
// Builder shares, so a thread set stores each distinct instruction once:
// threads differ mostly in the addresses their Imm operands load.
type Program struct {
	tab *table
	idx []uint32 // per pc, the instruction's position in tab.ins

	// names holds the label name of every branch a Builder resolved, in
	// ascending pc order, for disassembly. Programs built otherwise
	// (decoded from the verify wire format, say) have none.
	names []branchName
}

// branchName is the label name the branch at pc was built with.
type branchName struct {
	pc   int
	name string
}

// NewProgram returns a program of the instructions ins, branch targets
// as given, with a table of its own. It copies ins.
func NewProgram(ins []Instr) *Program {
	t := newInterner()
	idx := make([]uint32, len(ins))
	for pc := range ins {
		idx[pc] = t.intern(&ins[pc])
	}
	return &Program{tab: t.tab, idx: idx}
}

// At returns instruction pc. The instruction is shared with every other
// pc and program that holds the same one, so callers must not modify it.
func (p *Program) At(pc int) *Instr { return &p.tab.ins[p.idx[pc]] }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.idx) }

// Disasm disassembles instruction pc, naming a branch target by the
// label it was built with, or as @<target> when the program has none.
func (p *Program) Disasm(pc int) string {
	i := sort.Search(len(p.names), func(i int) bool { return p.names[i].pc >= pc })
	if i < len(p.names) && p.names[i].pc == pc {
		return p.At(pc).format(p.names[i].name)
	}
	return p.At(pc).String()
}
