package verify

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

// testFootprint declares one shared line at synclib.SharedBase.
func testFootprint() *Footprint {
	fp := &Footprint{}
	fp.AddRange(synclib.SharedBase, memtypes.LineBytes)
	return fp
}

func wantDiag(t *testing.T, r *Report, check, substr string) {
	t.Helper()
	for _, d := range r.Diags {
		if d.Check == check && strings.Contains(d.Msg, substr) {
			if d.PC >= 0 && d.Instr == "" {
				t.Errorf("diagnostic at pc %d has no disassembly: %v", d.PC, d)
			}
			return
		}
	}
	t.Fatalf("no [%s] diagnostic containing %q; got %v", check, substr, r.Diags)
}

func mustClean(t *testing.T, r *Report) {
	t.Helper()
	if !r.OK() {
		t.Fatalf("expected clean report, got: %v", r.Err())
	}
}

func TestCleanStraightLine(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.Imm(isa.R3, 7)
	b.St(isa.R2, 0, isa.R3)
	b.Ld(isa.R4, isa.R2, 8)
	b.Compute(100)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint(), Mode: ModeStrict})
	mustClean(t, r)
	if r.Budget == 0 || r.Budget > 10_000 {
		t.Fatalf("budget %d out of expected range", r.Budget)
	}
	if r.MemOps != 2 {
		t.Fatalf("MemOps = %d, want 2", r.MemOps)
	}
}

func TestOutOfRangeJump(t *testing.T) {
	p := &isa.Program{Ins: []isa.Instr{
		{Op: isa.Jmp, Target: 99},
		{Op: isa.Done},
	}}
	r := Program(p, Options{})
	wantDiag(t, r, "structure", "target 99 out of range")
}

func TestBadRegister(t *testing.T) {
	p := &isa.Program{Ins: []isa.Instr{
		{Op: isa.Imm, Rd: 40},
		{Op: isa.Done},
	}}
	r := Program(p, Options{})
	wantDiag(t, r, "structure", "register r40 out of range")
}

func TestFallthroughOffEnd(t *testing.T) {
	p := &isa.Program{Ins: []isa.Instr{
		{Op: isa.Imm, Rd: 1, ImmVal: 1},
	}}
	r := Program(p, Options{})
	wantDiag(t, r, "structure", "falls through past the end")
}

func TestNoReachableDone(t *testing.T) {
	b := isa.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "structure", "no reachable done")
	wantDiag(t, r, "bound", "unbounded loop")
}

func TestBadSyncKind(t *testing.T) {
	p := &isa.Program{Ins: []isa.Instr{
		{Op: isa.SyncBegin, ImmVal: 99},
		{Op: isa.Done},
	}}
	r := Program(p, Options{})
	wantDiag(t, r, "structure", "undefined sync kind")
}

func TestBadRMWFields(t *testing.T) {
	p := &isa.Program{Ins: []isa.Instr{
		{Op: isa.RMW, RMWOp: 77, RMWSt: 9, Base: 2},
		{Op: isa.Done},
	}}
	r := Program(p, Options{})
	wantDiag(t, r, "structure", "undefined RMW op")
	wantDiag(t, r, "structure", "undefined RMW store half")
}

func TestOutOfFootprintStore(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase)+4096) // beyond the single declared line
	b.Imm(isa.R3, 1)
	b.St(isa.R2, 0, isa.R3)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint()})
	wantDiag(t, r, "memory", "outside the declared footprint")
}

func TestStoreStraddlingFootprintEnd(t *testing.T) {
	b := isa.NewBuilder()
	// Last byte of the access falls one word past the declared line.
	b.Imm(isa.R2, uint64(synclib.SharedBase)+memtypes.LineBytes-4)
	b.St(isa.R2, 0, isa.R3)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint()})
	wantDiag(t, r, "memory", "outside the declared footprint")
}

func TestUnknownAddress(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.Ld(isa.R3, isa.R2, 0)       // R3 <- loaded
	b.Add(isa.R4, isa.R3, isa.R3) // arithmetic on a loaded value: unknown
	b.St(isa.R4, 0, isa.R3)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint()})
	wantDiag(t, r, "memory", "statically unknown")
}

func TestIndirectAccessRequiresAllowance(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder()
		b.Imm(isa.R2, uint64(synclib.SharedBase))
		b.Ld(isa.R3, isa.R2, 0) // pointer load
		b.Ld(isa.R4, isa.R3, 8) // pointer chase, word 1
		b.Done()
		return b.MustBuild()
	}
	fp := testFootprint()
	r := Program(build(), Options{Footprint: fp})
	wantDiag(t, r, "memory", "does not allow indirection")

	fp.AllowIndirect = true
	mustClean(t, Program(build(), Options{Footprint: fp}))

	// Even with the allowance the offset must stay within one line.
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.Ld(isa.R3, isa.R2, 0)
	b.Ld(isa.R4, isa.R3, memtypes.LineBytes)
	b.Done()
	r = Program(b.MustBuild(), Options{Footprint: fp})
	wantDiag(t, r, "memory", "outside the pointee's cache line")
}

func TestUnpairedAcquire(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncAcquire)
	b.SyncEnd(isa.SyncAcquire)
	b.Done() // exits holding the lock: no release
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "unpaired acquire")
}

func TestReleaseWithoutAcquire(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncRelease)
	b.SyncEnd(isa.SyncRelease)
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "release completed without a matching held acquire")
}

func TestSyncEndMismatch(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncAcquire)
	b.SyncEnd(isa.SyncBarrier)
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "closes a")
}

func TestSyncEndWithoutBegin(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncEnd(isa.SyncAcquire)
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "without a matching sync_begin")
}

func TestDoneInsideSyncPhase(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncBarrier)
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "done inside an open barrier phase")
}

func TestPathDependentLockBalance(t *testing.T) {
	b := isa.NewBuilder()
	b.Beqz(isa.R1, "skip")
	b.SyncBegin(isa.SyncAcquire)
	b.SyncEnd(isa.SyncAcquire)
	b.Label("skip")
	b.SyncBegin(isa.SyncRelease)
	b.SyncEnd(isa.SyncRelease)
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "sync", "holding different lock counts")
}

func TestBlockingOutsideSyncRegion(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.LdCB(isa.R3, isa.R2, 0)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint()})
	wantDiag(t, r, "sync", "outside a synchronization region")
}

func TestUnboundedLoop(t *testing.T) {
	b := isa.NewBuilder()
	// Pure-ALU loop with no exit condition the verifier can bound.
	b.Imm(isa.R1, 1)
	b.Label("top")
	b.Add(isa.R1, isa.R1, isa.R1)
	b.Jmp("top")
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "bound", "unbounded loop")
}

func TestCountedLoopBudget(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R1, 10)
	b.Label("top")
	b.Compute(5)
	b.Addi(isa.R1, isa.R1, ^uint64(0)) // -1
	b.Bnez(isa.R1, "top")
	b.Done()
	r := Program(b.MustBuild(), Options{Mode: ModeStrict})
	mustClean(t, r)
	// 10 body iterations of ~8 cycles, plus slop for the +1 test trip.
	if r.Budget < 80 || r.Budget > 200 {
		t.Fatalf("budget %d outside expected counted-loop range", r.Budget)
	}
}

func TestCountedLoopUpwards(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R1, 0)
	b.Label("top")
	b.Compute(3)
	b.Addi(isa.R1, isa.R1, 2)
	b.Bnei(isa.R1, 20, "top")
	b.Done()
	r := Program(b.MustBuild(), Options{Mode: ModeStrict})
	mustClean(t, r)
}

func TestLoopMissingExitValue(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R1, 5)
	b.Label("top")
	b.Addi(isa.R1, isa.R1, 2) // steps 7,9,... never equals 0
	b.Bnez(isa.R1, "top")
	b.Done()
	r := Program(b.MustBuild(), Options{})
	wantDiag(t, r, "bound", "unbounded loop")
}

func TestSpinLoopRejectedInStrictMode(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncAcquire)
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.Label("spin")
	b.Ld(isa.R3, isa.R2, 0)
	b.Bnez(isa.R3, "spin")
	b.SyncEnd(isa.SyncAcquire)
	b.SyncBegin(isa.SyncRelease)
	b.SyncEnd(isa.SyncRelease)
	b.Done()

	trusted := Program(b.MustBuild(), Options{Footprint: testFootprint(), Mode: ModeTrusted})
	mustClean(t, trusted)
	if trusted.SpinSites != 1 {
		t.Fatalf("SpinSites = %d, want 1", trusted.SpinSites)
	}

	strict := Program(b.MustBuild(), Options{Footprint: testFootprint(), Mode: ModeStrict})
	wantDiag(t, strict, "bound", "spin loop cannot be proven bounded in strict mode")
}

func TestStrictRejectsCallbackRead(t *testing.T) {
	b := isa.NewBuilder()
	b.SyncBegin(isa.SyncWait)
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.LdCB(isa.R3, isa.R2, 0)
	b.SyncEnd(isa.SyncWait)
	b.Done()
	r := Program(b.MustBuild(), Options{Footprint: testFootprint(), Mode: ModeStrict})
	wantDiag(t, r, "bound", "blocking callback read")
}

func TestBarrierCount(t *testing.T) {
	prog := func(n int) *isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < n; i++ {
			b.SyncBegin(isa.SyncBarrier)
			b.SyncEnd(isa.SyncBarrier)
		}
		b.Done()
		return b.MustBuild()
	}
	r := Program(prog(3), Options{})
	mustClean(t, r)
	if r.Barriers != 3 {
		t.Fatalf("Barriers = %d, want 3", r.Barriers)
	}

	set := Threads([]*isa.Program{prog(2), prog(3)}, Options{})
	if set.OK() {
		t.Fatal("mismatched barrier participation not flagged")
	}
	found := false
	for _, d := range set.Cross {
		if strings.Contains(d.Msg, "barrier participation differs") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cross-thread diagnostic: %v", set.Cross)
	}

	ok := Threads([]*isa.Program{prog(2), prog(2)}, Options{})
	if !ok.OK() {
		t.Fatalf("matching barrier counts flagged: %v", ok.Err())
	}
}

func TestEmptyProgram(t *testing.T) {
	r := Program(&isa.Program{}, Options{})
	wantDiag(t, r, "structure", "empty program")
}

func TestWireRoundTrip(t *testing.T) {
	b := isa.NewBuilder()
	b.Imm(isa.R2, uint64(synclib.SharedBase))
	b.SyncBegin(isa.SyncAcquire)
	b.TAS(isa.R3, isa.R2, 0, false, memtypes.CBAll)
	b.SyncEnd(isa.SyncAcquire)
	b.SyncBegin(isa.SyncRelease)
	b.Imm(isa.R3, 0)
	b.StThrough(isa.R2, 0, isa.R3)
	b.SyncEnd(isa.SyncRelease)
	b.Done()
	orig := b.MustBuild()

	req := WireRequest{
		Threads:   []WireProgram{EncodeProgram(orig)},
		Footprint: WireFootprint{Ranges: []WireRange{{Base: uint64(synclib.SharedBase), Size: memtypes.LineBytes}}},
		Mode:      "strict",
	}
	progs, opts, err := req.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || len(progs[0].Ins) != len(orig.Ins) {
		t.Fatalf("decode shape mismatch")
	}
	for i := range orig.Ins {
		want := orig.Ins[i]
		if progs[0].Ins[i] != want {
			t.Fatalf("instr %d: got %+v want %+v", i, progs[0].Ins[i], want)
		}
	}
	if opts.Mode != ModeStrict || opts.Footprint == nil {
		t.Fatalf("opts not decoded: %+v", opts)
	}
	set := Threads(progs, opts)
	mustClean(t, set.Threads[0])
}

// A program decoded from the wire carries no label names, so its
// diagnostics print branch targets as @<pc>.
func TestWireDiagnosticPrintsTargetPC(t *testing.T) {
	req := WireRequest{Threads: []WireProgram{{Ins: []WireInstr{
		{Op: "imm", Rd: 1, Imm: 7},
		{Op: "bnei", Rs: 1, Target: 9},
		{Op: "jmp"},
		{Op: "done"},
	}}}}
	progs, opts, err := req.Decode()
	if err != nil {
		t.Fatal(err)
	}
	set := Threads(progs, opts)
	if err := set.Err(); err == nil || !strings.Contains(err.Error(), "pc 1 (bnei r1, 0, @9)") {
		t.Fatalf("want a diagnostic at pc 1 (bnei r1, 0, @9), got %v", err)
	}
	if got := progs[0].Disasm(2); got != "jmp @0" {
		t.Fatalf("pc 2 disassembles as %q, want %q", got, "jmp @0")
	}
}

func TestWireDecodeErrors(t *testing.T) {
	cases := []WireRequest{
		{}, // no threads
		{Threads: []WireProgram{{Ins: []WireInstr{{Op: "frobnicate"}}}}},
		{Threads: []WireProgram{{Ins: []WireInstr{{Op: "done"}}}}, Mode: "yolo"},
		{Threads: []WireProgram{{Ins: []WireInstr{{Op: "rmw", RMWOp: "nope", RMWSt: "cbA"}, {Op: "done"}}}}},
		{Threads: []WireProgram{{Ins: []WireInstr{{Op: "done"}}}},
			Footprint: WireFootprint{Ranges: []WireRange{{Base: 1, Size: 0}}}},
		{Threads: []WireProgram{{Ins: []WireInstr{{Op: "imm", Rd: 999}, {Op: "done"}}}}},
	}
	for i, c := range cases {
		if _, _, err := c.Decode(); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestFootprintCoverage(t *testing.T) {
	fp := &Footprint{}
	fp.AddRange(0x1000, 0x100)
	fp.AddRange(0x1100, 0x100) // adjacent: merges
	fp.AddRange(0x3000, 0x10)
	if !fp.Covers(0x1000, 0x11ff) {
		t.Fatal("merged adjacent ranges should cover the union")
	}
	if fp.Covers(0x1000, 0x1200) {
		t.Fatal("coverage past the merged end")
	}
	if fp.Covers(0x2fff, 0x3001) {
		t.Fatal("gap before a later range covered")
	}
	if len(fp.Ranges()) != 2 {
		t.Fatalf("normalize left %d ranges, want 2", len(fp.Ranges()))
	}
}
