package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/verify"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

var memRMWOps = []memtypes.RMWOp{
	memtypes.RMWTestAndSet, memtypes.RMWSwap, memtypes.RMWFetchAdd,
	memtypes.RMWTestAndDec, memtypes.RMWCompareAndSwap,
}

var memCBWrites = []memtypes.CBWrite{
	memtypes.CBAll, memtypes.CBOne, memtypes.CBZero,
}

// fuzzOps is the opcode alphabet the decoder draws from. Strict-mode
// verification rejects blocking callback reads, so accepted programs
// never park in the callback directory, but the decoder still emits
// them: the fuzzer should probe the reject paths too.
var fuzzOps = []isa.Opcode{
	isa.Nop, isa.Imm, isa.Mov, isa.Add, isa.Addi, isa.Sub, isa.Xori,
	isa.Beq, isa.Bne, isa.Beqi, isa.Bnei, isa.Jmp, isa.Compute, isa.ComputeR,
	isa.Ld, isa.St, isa.LdT, isa.LdCB, isa.StT, isa.StCB1, isa.StCB0, isa.RMW,
	isa.SelfInvl, isa.SelfDown, isa.BackoffReset, isa.BackoffWait,
	isa.SyncBegin, isa.SyncEnd, isa.Done,
}

// fuzzFootprint is the data region fuzzed programs may touch. Every
// immediate and offset the decoder produces is a multiple of 8 below
// 4096, so register-relative addressing stays inside it unless the
// program computes an address the verifier must reject.
const fuzzFootprintSize = 4096

// decodeProgram maps raw fuzz bytes onto a program, 8 bytes per
// instruction. The mapping is total — any input decodes — and biased so
// that well-formed programs are reachable: register indices are reduced
// mod NumRegs, immediates and offsets stay inside the footprint, and a
// trailing done is appended when the input lacks one.
func decodeProgram(data []byte) *isa.Program {
	var ins []isa.Instr
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		in := isa.Instr{
			Op:     fuzzOps[int(b[0])%len(fuzzOps)],
			Rd:     isa.Reg(b[1] % isa.NumRegs),
			Rs:     isa.Reg(b[2] % isa.NumRegs),
			Rt:     isa.Reg(b[3] % isa.NumRegs),
			ImmVal: uint64(b[4]) * 8,
			Target: int(b[5]),
			Base:   isa.Reg(b[6] % isa.NumRegs),
			Offset: int64(b[7]%64) * 8,
		}
		switch in.Op {
		case isa.SyncBegin, isa.SyncEnd:
			in.ImmVal = uint64(b[4] % uint8(isa.NumSyncKinds))
		case isa.RMW:
			in.RMWOp = memRMWOps[int(b[4])%len(memRMWOps)]
			in.RMWLdCB = b[5]&1 != 0
			in.RMWSt = memCBWrites[int(b[5]>>1)%len(memCBWrites)]
			in.ArgIsReg = b[5]&8 != 0
			in.ArgReg = in.Rt
			in.ArgImm = uint64(b[4]) % 8
			in.Expect = 0
			in.Target = 0
		}
		ins = append(ins, in)
	}
	if n := len(ins); n == 0 || ins[n-1].Op != isa.Done {
		ins = append(ins, isa.Instr{Op: isa.Done})
	}
	return isa.NewProgram(ins)
}

// enc packs one instruction of the decoder's 8-byte format, for seeds.
func enc(op, rd, rs, rt, imm, target, base, off byte) []byte {
	return []byte{op, rd, rs, rt, imm, target, base, off}
}

// opIndex returns the fuzzOps index of op (the decoder's byte 0).
func opIndex(op isa.Opcode) byte {
	for i, o := range fuzzOps {
		if o == op {
			return byte(i)
		}
	}
	panic("opcode not in fuzzOps")
}

// fuzzSeeds returns the seed corpus: encoded programs that strict-mode
// verification must accept, so the fuzzer starts from inputs that reach
// the machine-execution half of the property rather than the (easy)
// reject-and-skip half.
func fuzzSeeds() [][]byte {
	return [][]byte{
		// Straight-line memory traffic.
		concat(
			enc(opIndex(isa.Imm), 1, 0, 0, 16, 0, 0, 0), // imm r1, 128
			enc(opIndex(isa.St), 0, 2, 0, 0, 0, 1, 8),   // st 64(r1), r2
			enc(opIndex(isa.Ld), 3, 0, 0, 0, 0, 1, 8),   // ld r3, 64(r1)
			enc(opIndex(isa.Done), 0, 0, 0, 0, 0, 0, 0),
		),
		// A bounded counted loop: r1 steps from 0 to 32 by 8.
		concat(
			enc(opIndex(isa.Imm), 1, 0, 0, 0, 0, 0, 0),     // imm r1, 0
			enc(opIndex(isa.Addi), 1, 1, 0, 1, 0, 0, 0),    // addi r1, r1, 8 (loop head)
			enc(opIndex(isa.Compute), 0, 0, 0, 2, 0, 0, 0), // compute 16
			enc(opIndex(isa.Bnei), 0, 1, 0, 4, 1, 0, 0),    // bnei r1, 32, loop head
			enc(opIndex(isa.Done), 0, 0, 0, 0, 0, 0, 0),
		),
		// An acquire/release-paired region around a racy store.
		concat(
			enc(opIndex(isa.SyncBegin), 0, 0, 0, byte(isa.SyncAcquire), 0, 0, 0),
			enc(opIndex(isa.SelfInvl), 0, 0, 0, 0, 0, 0, 0),
			enc(opIndex(isa.SyncEnd), 0, 0, 0, byte(isa.SyncAcquire), 0, 0, 0),
			enc(opIndex(isa.SyncBegin), 0, 0, 0, byte(isa.SyncRelease), 0, 0, 0),
			enc(opIndex(isa.StT), 0, 2, 0, 0, 0, 0, 16),
			enc(opIndex(isa.SelfDown), 0, 0, 0, 0, 0, 0, 0),
			enc(opIndex(isa.SyncEnd), 0, 0, 0, byte(isa.SyncRelease), 0, 0, 0),
			enc(opIndex(isa.Done), 0, 0, 0, 0, 0, 0, 0),
		),
	}
}

// TestFuzzSeedsAccepted pins the seed corpus to the accepting side of
// the verifier: a seed the verifier rejects would make the fuzz
// property pass vacuously.
func TestFuzzSeedsAccepted(t *testing.T) {
	fp := &verify.Footprint{}
	fp.AddRange(0, fuzzFootprintSize)
	for i, seed := range fuzzSeeds() {
		prog := decodeProgram(seed)
		rep := verify.Program(prog, verify.Options{Footprint: fp, Mode: verify.ModeStrict})
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d must verify clean, got:\n%s%v", i, disasm(prog), err)
		}
	}
}

// FuzzVerifiedPrograms checks the verifier's core soundness contract:
// any program strict-mode verification accepts must run to completion
// on a real machine within the declared cycle budget, without tripping
// the watchdog or violating machine invariants (accepted ⇒ bounded).
// Rejected programs are simply skipped — rejection precision has its
// own unit tests; this target guards against unsound acceptance.
func FuzzVerifiedPrograms(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	fp := &verify.Footprint{}
	fp.AddRange(0, fuzzFootprintSize)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*8 {
			return // cap decoded length; long inputs add nothing
		}
		prog := decodeProgram(data)
		rep := verify.Program(prog, verify.Options{
			Footprint: fp,
			Mode:      verify.ModeStrict,
		})
		if !rep.OK() {
			return // rejection is fine; acceptance carries the obligation
		}

		cfg := machine.Default(machine.ProtocolCallback)
		cfg.Cores = 4
		m := machine.New(cfg, synclib.IsPrivate)
		m.SetInvariantChecks(true)
		limit := rep.CycleLimit()
		m.SetWatchdog(limit)
		m.Load(0, prog, nil)
		if err := m.Run(limit); err != nil {
			t.Fatalf("strict-verified program failed to complete within budget %d (worst-case %d):\n%s\nerror: %v",
				limit, rep.Budget, disasm(prog), err)
		}
		if err := m.CheckInvariants(true); err != nil {
			t.Fatalf("strict-verified program broke machine invariants:\n%s\nerror: %v", disasm(prog), err)
		}
	})
}

func concat(chunks ...[]byte) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

func disasm(p *isa.Program) string {
	var b strings.Builder
	for pc := 0; pc < p.Len(); pc++ {
		fmt.Fprintf(&b, "  pc %d: %s\n", pc, p.At(pc))
	}
	return b.String()
}
