package machine

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// The memory path — core, L1, directory or LLC bank, and the response —
// must run without heap allocation once a machine is warm. These tests
// run a long spin program on a 4-core machine, let every pool and table
// reach its working size, and then require zero allocations across
// whole RunToCycle windows, which cover every kernel event the programs
// cause.

const (
	allocWarmCycles   = 200_000
	allocWindowCycles = 2_000
	allocLoops        = 1 << 30 // iterations: the programs never finish
)

// requireZeroAllocWindows warms m and measures the allocations of
// successive RunToCycle windows.
func requireZeroAllocWindows(t *testing.T, m *Machine) {
	t.Helper()
	if done, err := m.RunToCycle(allocWarmCycles); done || err != nil {
		t.Fatalf("warm-up: done=%v err=%v", done, err)
	}
	target := uint64(allocWarmCycles)
	before := m.K.Executed()
	allocs := testing.AllocsPerRun(20, func() {
		target += allocWindowCycles
		if done, err := m.RunToCycle(target); done || err != nil {
			t.Fatalf("window to %d: done=%v err=%v", target, done, err)
		}
	})
	if m.K.Executed() == before {
		t.Fatal("the measured windows fired no events")
	}
	if allocs != 0 {
		t.Fatalf("memory path allocates %.2f times per %d-cycle window, want 0", allocs, allocWindowCycles)
	}
}

// counted emits `for R1 = n; R1 != 0; R1-- { body }`.
func counted(b *isa.Builder, n uint64, body func(b *isa.Builder)) *isa.Builder {
	b.Imm(isa.R1, n)
	b.Label("loop")
	body(b)
	b.Addi(isa.R1, isa.R1, ^uint64(0))
	b.Bnez(isa.R1, "loop")
	return b.Done()
}

// TestZeroAllocMESISpin runs the Invalidation baseline's spin: every core
// loads one shared flag in a loop, so after the first miss each load is
// an L1 hit on an S copy.
func TestZeroAllocMESISpin(t *testing.T) {
	cfg := Default(ProtocolMESI)
	cfg.Cores = 4
	m := New(cfg, nil)
	flag := uint64(0x1000)
	for c := 0; c < cfg.Cores; c++ {
		b := isa.NewBuilder().Imm(isa.R2, flag)
		m.Load(c, counted(b, allocLoops, func(b *isa.Builder) {
			b.Ld(isa.R3, isa.R2, 0)
		}).MustBuild(), nil)
	}
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.L1Hits == 0 {
		t.Fatalf("no L1 hits: %+v", st)
	}
}

// TestZeroAllocCBOneSpin runs CB-One traffic through the VIPS LLC banks
// and the callback directory: two cores pass a token through two words
// with st_cb1, each waiting for it with a blocking ld_cb, while a third
// core polls both words with ld_through.
func TestZeroAllocCBOneSpin(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	a, c := uint64(0x1000), uint64(0x2000+memtypes.WordBytes)
	ping := isa.NewBuilder().Imm(isa.R2, a).Imm(isa.R4, c)
	ping.LdCB(isa.R3, isa.R2, 0).Compute(500)
	m.Load(0, counted(ping, allocLoops, func(b *isa.Builder) {
		b.Compute(50)
		b.StCB1(isa.R4, 0, isa.R1)
		b.LdCB(isa.R3, isa.R2, 0)
	}).MustBuild(), nil)
	pong := isa.NewBuilder().Imm(isa.R2, a).Imm(isa.R4, c)
	pong.LdCB(isa.R3, isa.R4, 0)
	m.Load(1, counted(pong, allocLoops, func(b *isa.Builder) {
		b.LdCB(isa.R3, isa.R4, 0)
		b.Compute(50)
		b.StCB1(isa.R2, 0, isa.R1)
	}).MustBuild(), nil)
	poll := isa.NewBuilder().Imm(isa.R2, a).Imm(isa.R4, c)
	m.Load(2, counted(poll, allocLoops, func(b *isa.Builder) {
		b.LdThrough(isa.R3, isa.R2, 0)
		b.LdThrough(isa.R3, isa.R4, 0)
		b.Compute(20)
	}).MustBuild(), nil)
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.CBWakes == 0 || st.CBDirAccesses == 0 {
		t.Fatalf("no callback traffic: %+v", st)
	}
}
