package isa

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/memtypes"
)

func TestBuilderLabelsForwardAndBackward(t *testing.T) {
	b := NewBuilder()
	b.Imm(R1, 3)
	b.Label("loop")
	b.Addi(R1, R1, ^uint64(0)) // R1--
	b.Bnez(R1, "loop")
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Done()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ins[2].Target != 1 {
		t.Fatalf("backward branch target = %d, want 1", p.Ins[2].Target)
	}
	if p.Ins[3].Target != 5 {
		t.Fatalf("forward jump target = %d, want 5", p.Ins[3].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

// TestBuilderUndefinedLabelDeterministic pins the error-reporting order:
// with several unresolved labels, Build must always name the one at the
// lowest instruction index, not whichever the fixup map yields first.
func TestBuilderUndefinedLabelDeterministic(t *testing.T) {
	const want = `isa: undefined label "missing0" at instruction 0`
	for i := 0; i < 32; i++ {
		b := NewBuilder()
		for j := 0; j < 8; j++ {
			b.Jmp("missing" + string(rune('0'+j)))
		}
		_, err := b.Build()
		if err == nil {
			t.Fatal("expected error for undefined labels")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: error = %q, want %q", i, err, want)
		}
	}
}

func TestBuilderRedefinedLabelPanics(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	defer func() {
		if recover() == nil {
			t.Fatal("label redefinition did not panic")
		}
	}()
	b.Label("x")
}

func TestRMWHelpers(t *testing.T) {
	p := NewBuilder().
		TAS(R1, R2, 0, false, memtypes.CBZero).
		FetchStore(R3, R2, 8, R4, memtypes.CBAll).
		FetchAdd(R5, R2, 16, ^uint64(0), memtypes.CBAll).
		TestDec(R6, R2, 24, memtypes.CBZero).
		MustBuild()

	tas := p.Ins[0]
	if tas.RMWOp != memtypes.RMWTestAndSet || tas.Expect != 0 || tas.ArgImm != 1 || tas.ArgIsReg {
		t.Fatalf("TAS encoded wrong: %+v", tas)
	}
	if tas.RMWSt != memtypes.CBZero {
		t.Fatal("TAS store semantics lost")
	}
	fs := p.Ins[1]
	if fs.RMWOp != memtypes.RMWSwap || !fs.ArgIsReg || fs.ArgReg != R4 {
		t.Fatalf("FetchStore encoded wrong: %+v", fs)
	}
	fa := p.Ins[2]
	if fa.RMWOp != memtypes.RMWFetchAdd || fa.ArgImm != ^uint64(0) {
		t.Fatalf("FetchAdd encoded wrong: %+v", fa)
	}
	td := p.Ins[3]
	if td.RMWOp != memtypes.RMWTestAndDec {
		t.Fatalf("TestDec encoded wrong: %+v", td)
	}
}

func TestIsMem(t *testing.T) {
	memOps := []Opcode{Ld, St, LdT, LdCB, StT, StCB1, StCB0, RMW, SelfInvl, SelfDown}
	for _, op := range memOps {
		if !op.IsMem() {
			t.Errorf("%s should be a memory op", op)
		}
	}
	nonMem := []Opcode{Nop, Imm, Add, Beq, Jmp, Compute, BackoffWait, SyncBegin, Done}
	for _, op := range nonMem {
		if op.IsMem() {
			t.Errorf("%s should not be a memory op", op)
		}
	}
}

// TestTable1Coverage checks that every synchronization primitive from
// Table 1 of the paper is expressible in the ISA.
func TestTable1Coverage(t *testing.T) {
	b := NewBuilder()
	// ld_through: general conflicting load.
	b.LdThrough(R1, R0, 0)
	// ld_cb: subsequent blocking loads in spin-waiting.
	b.LdCB(R1, R0, 0)
	// st_cb0 / st_cb1 / st_through.
	b.StCB0(R0, 0, R1)
	b.StCB1(R0, 0, R1)
	b.StThrough(R0, 0, R1)
	// {ld}&{st_cb0}: T&T&S lock acquire.
	b.TAS(R1, R0, 0, false, memtypes.CBZero)
	// {ld}&{st_cb1}: fetch&add signalling one thread.
	b.FetchAdd(R1, R0, 0, 1, memtypes.CBOne)
	// {ld}&{st_cbA}: fetch&add in a barrier.
	b.FetchAdd(R1, R0, 0, 1, memtypes.CBAll)
	// {ld_cb}&{st_cb0}: spin-waiting T&S.
	b.TAS(R1, R0, 0, true, memtypes.CBZero)
	// {ld_cb}&{st_cb1} and {ld_cb}&{st_cbA}: listed as "not used" but
	// must still be expressible.
	b.RMW(R1, R0, 0, RMWSpec{Op: memtypes.RMWTestAndSet, LdCB: true, St: memtypes.CBOne, ArgImm: 1})
	b.RMW(R1, R0, 0, RMWSpec{Op: memtypes.RMWTestAndSet, LdCB: true, St: memtypes.CBAll, ArgImm: 1})
	b.Done()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembly(t *testing.T) {
	p := NewBuilder().
		Imm(R1, 7).
		LdCB(R2, R1, 8).
		TAS(R3, R1, 0, true, memtypes.CBZero).
		Bnez(R3, "spin").
		Label("spin").
		Done().
		MustBuild()
	texts := make([]string, 0, p.Len())
	for pc := range p.Ins {
		texts = append(texts, p.Disasm(pc))
	}
	joined := strings.Join(texts, "\n")
	for _, want := range []string{"imm r1, 7", "ld_cb r2, 8(r1)", "t&s{ld_cb&st_cb0}", "bnei r3, 0, spin", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, joined)
		}
	}
}

// Reset keeps the instruction backing but forgets every label, and the
// programs built before it keep their instructions and names.
func TestBuilderReset(t *testing.T) {
	b := NewBuilder()
	b.Label("top").Imm(R1, 1).Bnez(R1, "top").Done()
	p1 := b.MustBuild()
	b.Reset()
	if b.Pos() != 0 {
		t.Fatalf("Pos after Reset = %d, want 0", b.Pos())
	}
	b.Jmp("end").Imm(R2, 2).Label("top").Label("end").Done()
	p2 := b.MustBuild()
	if got := p1.Disasm(1); got != "bnei r1, 0, top" || p1.Ins[1].Target != 0 || p1.Ins[0].Op != Imm {
		t.Fatalf("first program changed by Reset: pc 1 = %q, target %d", got, p1.Ins[1].Target)
	}
	if got := p2.Disasm(0); got != "jmp end" || p2.Ins[0].Target != 2 || p2.Len() != 3 {
		t.Fatalf("second program: pc 0 = %q, target %d, len %d", got, p2.Ins[0].Target, p2.Len())
	}
	if got := p2.Disasm(1); got != "imm r2, 2" {
		t.Fatalf("second program pc 1 = %q", got)
	}
}

// Instr is a compact pointer-free record: programs are the bulk of a
// cell's heap after the caches, and the GC never scans their backing.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 56 {
		t.Errorf("Instr is %d bytes, want at most 56", n)
	}
	typ := reflect.TypeOf(Instr{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Instr.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

// holdsPointer reports whether a value of type t contains a pointer the
// GC must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	}
	return false
}

func TestBuildCopiesInstructions(t *testing.T) {
	b := NewBuilder()
	b.Jmp("l")
	b.Label("l")
	p1 := b.MustBuild()
	b.Done()
	p2 := b.MustBuild()
	if p1.Len() == p2.Len() {
		t.Fatal("programs should differ in length")
	}
	if p1.Ins[0].Target != 1 {
		t.Fatal("first build corrupted by later emission")
	}
}

func TestAllOpcodesHaveNames(t *testing.T) {
	for op := Nop; op <= Done; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "Opcode(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if Opcode(200).String() == "" {
		t.Error("unknown opcode should still print")
	}
}

func TestSyncKindNames(t *testing.T) {
	for k := SyncNone; k < NumSyncKinds; k++ {
		if k.String() == "" {
			t.Errorf("sync kind %d has no name", k)
		}
	}
	if SyncKind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
}

func TestRemainingBuilderMethods(t *testing.T) {
	p := NewBuilder().
		Nop().
		Mov(R1, R2).
		Sub(R3, R4, R5).
		Xori(R6, R6, 1).
		Beq(R1, R2, "l").
		Bne(R1, R2, "l").
		Beqi(R1, 7, "l").
		Bnei(R1, 7, "l").
		Label("l").
		ComputeR(R3).
		BackoffReset().
		BackoffWait().
		SyncBegin(SyncBarrier).
		SyncEnd(SyncBarrier).
		SelfInvl().
		SelfDown().
		Done().
		MustBuild()
	wantOps := []Opcode{Nop, Mov, Sub, Xori, Beq, Bne, Beqi, Bnei, ComputeR,
		BackoffReset, BackoffWait, SyncBegin, SyncEnd, SelfInvl, SelfDown, Done}
	if p.Len() != len(wantOps) {
		t.Fatalf("len=%d want %d", p.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if p.Ins[i].Op != op {
			t.Fatalf("ins %d = %s, want %s", i, p.Ins[i].Op, op)
		}
	}
	// Branch targets all resolve to the label.
	for i := 4; i <= 7; i++ {
		if p.Ins[i].Target != 8 {
			t.Fatalf("branch %d target = %d, want 8", i, p.Ins[i].Target)
		}
	}
}

func TestDisassemblyCoversEveryMemOp(t *testing.T) {
	p := NewBuilder().
		Ld(R1, R2, 8).
		St(R2, 8, R1).
		LdThrough(R1, R2, 0).
		StThrough(R2, 0, R1).
		StCB1(R2, 0, R1).
		StCB0(R2, 0, R1).
		Jmp("end").
		Label("end").
		Done().
		MustBuild()
	for _, in := range p.Ins {
		if in.String() == "" {
			t.Fatalf("empty disassembly for %v", in.Op)
		}
	}
}

func TestMustBuildPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on unresolved label")
		}
	}()
	NewBuilder().Jmp("missing").MustBuild()
}
