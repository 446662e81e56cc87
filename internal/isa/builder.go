package isa

import (
	"fmt"
	"slices"

	"repro/internal/memtypes"
)

// Builder assembles a Program with symbolic labels. Methods append one
// instruction each and return the builder for chaining. Label references
// may precede their definition; Build resolves them.
type Builder struct {
	ins    []Instr
	labels map[string]int
	fixups []branchName // every branch and its label, in pc order
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Reset empties the builder for the next program. It keeps the
// instruction backing, so building many programs in turn through one
// builder does not regrow it; programs already built are unaffected.
func (b *Builder) Reset() {
	b.ins = b.ins[:0]
	clear(b.labels)
	b.fixups = b.fixups[:0]
}

// Pos returns the current instruction count, useful for generating
// unique label names.
func (b *Builder) Pos() int { return len(b.ins) }

// Label defines name at the current position. Redefinition panics.
func (b *Builder) Label(name string) *Builder {
	if _, ok := b.labels[name]; ok {
		panic(fmt.Sprintf("isa: label %q redefined", name))
	}
	b.labels[name] = len(b.ins)
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	b.ins = append(b.ins, in)
	return b
}

func (b *Builder) emitBranch(in Instr, label string) *Builder {
	b.fixups = append(b.fixups, branchName{pc: len(b.ins), name: label})
	return b.emit(in)
}

// Nop appends a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: Nop}) }

// Imm loads an immediate: rd <- v.
func (b *Builder) Imm(rd Reg, v uint64) *Builder {
	return b.emit(Instr{Op: Imm, Rd: rd, ImmVal: v})
}

// Mov copies a register: rd <- rs.
func (b *Builder) Mov(rd, rs Reg) *Builder {
	return b.emit(Instr{Op: Mov, Rd: rd, Rs: rs})
}

// Add computes rd <- rs + rt.
func (b *Builder) Add(rd, rs, rt Reg) *Builder {
	return b.emit(Instr{Op: Add, Rd: rd, Rs: rs, Rt: rt})
}

// Addi computes rd <- rs + imm (imm may encode negative via two's
// complement).
func (b *Builder) Addi(rd, rs Reg, imm uint64) *Builder {
	return b.emit(Instr{Op: Addi, Rd: rd, Rs: rs, ImmVal: imm})
}

// Sub computes rd <- rs - rt.
func (b *Builder) Sub(rd, rs, rt Reg) *Builder {
	return b.emit(Instr{Op: Sub, Rd: rd, Rs: rs, Rt: rt})
}

// Xori computes rd <- rs ^ imm. Xori(s, s, 1) is the paper's "not $s".
func (b *Builder) Xori(rd, rs Reg, imm uint64) *Builder {
	return b.emit(Instr{Op: Xori, Rd: rd, Rs: rs, ImmVal: imm})
}

// Beq branches to label when rs == rt.
func (b *Builder) Beq(rs, rt Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: Beq, Rs: rs, Rt: rt}, label)
}

// Bne branches to label when rs != rt.
func (b *Builder) Bne(rs, rt Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: Bne, Rs: rs, Rt: rt}, label)
}

// Beqz branches to label when rs == 0.
func (b *Builder) Beqz(rs Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: Beqi, Rs: rs, ImmVal: 0}, label)
}

// Bnez branches to label when rs != 0.
func (b *Builder) Bnez(rs Reg, label string) *Builder {
	return b.emitBranch(Instr{Op: Bnei, Rs: rs, ImmVal: 0}, label)
}

// Beqi branches to label when rs == imm.
func (b *Builder) Beqi(rs Reg, imm uint64, label string) *Builder {
	return b.emitBranch(Instr{Op: Beqi, Rs: rs, ImmVal: imm}, label)
}

// Bnei branches to label when rs != imm.
func (b *Builder) Bnei(rs Reg, imm uint64, label string) *Builder {
	return b.emitBranch(Instr{Op: Bnei, Rs: rs, ImmVal: imm}, label)
}

// Jmp branches unconditionally.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitBranch(Instr{Op: Jmp}, label)
}

// Compute models imm cycles of local, memory-free work.
func (b *Builder) Compute(cycles uint64) *Builder {
	return b.emit(Instr{Op: Compute, ImmVal: cycles})
}

// ComputeR models rs cycles of local work.
func (b *Builder) ComputeR(rs Reg) *Builder {
	return b.emit(Instr{Op: ComputeR, Rs: rs})
}

// Ld issues a DRF cached load: rd <- mem[rbase+off].
func (b *Builder) Ld(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: Ld, Rd: rd, Base: base, Offset: off})
}

// St issues a DRF cached store: mem[rbase+off] <- rs.
func (b *Builder) St(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: St, Rs: rs, Base: base, Offset: off})
}

// LdThrough issues a racy ld_through.
func (b *Builder) LdThrough(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: LdT, Rd: rd, Base: base, Offset: off})
}

// LdCB issues a blocking callback read.
func (b *Builder) LdCB(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: LdCB, Rd: rd, Base: base, Offset: off})
}

// StThrough issues a racy st_through (st_cbA).
func (b *Builder) StThrough(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StT, Rs: rs, Base: base, Offset: off})
}

// StCB1 issues a st_cb1 (service one callback).
func (b *Builder) StCB1(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StCB1, Rs: rs, Base: base, Offset: off})
}

// StCB0 issues a st_cb0 (service no callbacks).
func (b *Builder) StCB0(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StCB0, Rs: rs, Base: base, Offset: off})
}

// RMWSpec describes an atomic for the RMW builder methods.
type RMWSpec struct {
	Op       memtypes.RMWOp
	LdCB     bool             // load half is ld_cb
	St       memtypes.CBWrite // store half semantics
	Expect   uint64           // expected value (t&s / cas)
	ArgReg   Reg              // argument register if ArgIsReg
	ArgImm   uint64           // argument immediate otherwise
	ArgIsReg bool
}

// RMW issues an atomic on mem[rbase+off]; rd receives the old value.
func (b *Builder) RMW(rd, base Reg, off int64, spec RMWSpec) *Builder {
	return b.emit(Instr{
		Op: RMW, Rd: rd, Base: base, Offset: off,
		RMWOp: spec.Op, RMWLdCB: spec.LdCB, RMWSt: spec.St,
		Expect: spec.Expect, ArgReg: spec.ArgReg, ArgImm: spec.ArgImm,
		ArgIsReg: spec.ArgIsReg,
	})
}

// TAS issues t&s rd, L, expect, set: the classic test&set with the given
// store-half callback semantics.
func (b *Builder) TAS(rd, base Reg, off int64, ldCB bool, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWTestAndSet, LdCB: ldCB, St: st, Expect: 0, ArgImm: 1,
	})
}

// FetchStore issues f&s rd, L, argReg (unconditional swap, CLH lock).
func (b *Builder) FetchStore(rd, base Reg, off int64, arg Reg, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWSwap, St: st, ArgReg: arg, ArgIsReg: true,
	})
}

// FetchAdd issues f&a rd, C, delta with the given store semantics.
func (b *Builder) FetchAdd(rd, base Reg, off int64, delta uint64, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWFetchAdd, St: st, ArgImm: delta,
	})
}

// TestDec issues t&d rd, C (decrement if non-zero; rd gets the old value).
func (b *Builder) TestDec(rd, base Reg, off int64, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{Op: memtypes.RMWTestAndDec, St: st})
}

// SelfInvl emits the acquire fence.
func (b *Builder) SelfInvl() *Builder { return b.emit(Instr{Op: SelfInvl}) }

// SelfDown emits the release fence.
func (b *Builder) SelfDown() *Builder { return b.emit(Instr{Op: SelfDown}) }

// BackoffReset resets the core's exponential back-off interval.
func (b *Builder) BackoffReset() *Builder { return b.emit(Instr{Op: BackoffReset}) }

// BackoffWait stalls for the current back-off interval and doubles it (up
// to the configured cap).
func (b *Builder) BackoffWait() *Builder { return b.emit(Instr{Op: BackoffWait}) }

// SyncBegin marks the start of a synchronization phase for statistics.
func (b *Builder) SyncBegin(kind SyncKind) *Builder {
	return b.emit(Instr{Op: SyncBegin, ImmVal: uint64(kind)})
}

// SyncEnd marks the end of a synchronization phase.
func (b *Builder) SyncEnd(kind SyncKind) *Builder {
	return b.emit(Instr{Op: SyncEnd, ImmVal: uint64(kind)})
}

// Done marks thread completion.
func (b *Builder) Done() *Builder { return b.emit(Instr{Op: Done}) }

// Build resolves labels and returns the program. Unresolved labels are an
// error; with several unresolved labels the one at the lowest instruction
// index is reported, deterministically.
func (b *Builder) Build() (*Program, error) {
	ins := make([]Instr, len(b.ins))
	copy(ins, b.ins)
	for _, f := range b.fixups {
		target, ok := b.labels[f.name]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q at instruction %d", f.name, f.pc)
		}
		ins[f.pc].Target = target
	}
	return &Program{Ins: ins, names: slices.Clone(b.fixups)}, nil
}

// MustBuild is Build that panics on error, for statically known programs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
