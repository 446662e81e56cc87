package machine

import (
	"runtime"
	"testing"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/obs"
	"repro/internal/trace"
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
	if done, err := m.RunToCycle(nil, allocWarmCycles); done || err != nil {
		t.Fatalf("warm-up: done=%v err=%v", done, err)
	}
	target := uint64(allocWarmCycles)
	before := m.K.Executed()
	allocs := testing.AllocsPerRun(20, func() {
		target += allocWindowCycles
		if done, err := m.RunToCycle(nil, target); done || err != nil {
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

// observeAll attaches the consumers a fully observed run carries: a
// Ring, a metrics collector and cycle accounting.
func observeAll(m *Machine) {
	m.AttachTrace(trace.NewRing(256))
	m.AttachTrace(trace.NewMetricsCollector(obs.NewSimMetrics(obs.NewRegistry())))
	m.AttachCycles(cycles.NewAccumulator(len(m.Cores)))
}

// mesiSpinMachine runs the Invalidation baseline's spin: every core
// loads one shared flag in a loop, so after the first miss each load is
// an L1 hit on an S copy.
func mesiSpinMachine() *Machine {
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
	return m
}

func TestZeroAllocMESISpin(t *testing.T) {
	m := mesiSpinMachine()
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.L1Hits == 0 {
		t.Fatalf("no L1 hits: %+v", st)
	}
}

// With every consumer attached the MESI spin stays allocation-free too;
// cycle accounting makes its parked loops settle event by event.
func TestZeroAllocMESISpinObserved(t *testing.T) {
	m := mesiSpinMachine()
	observeAll(m)
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.L1Hits == 0 {
		t.Fatalf("no L1 hits: %+v", st)
	}
}

// cbOneSpinMachine runs CB-One traffic through the VIPS LLC banks and
// the callback directory: two cores pass a token through two words with
// st_cb1, each waiting for it with a blocking ld_cb, while a third core
// polls both words with ld_through.
func cbOneSpinMachine() *Machine {
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
	return m
}

func TestZeroAllocCBOneSpin(t *testing.T) {
	m := cbOneSpinMachine()
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.CBWakes == 0 || st.CBDirAccesses == 0 {
		t.Fatalf("no callback traffic: %+v", st)
	}
}

// With every consumer attached, messages, callback episodes and
// accounting legs are all observed without allocating: events carry
// numbers, and strings are rendered only when a consumer prints.
func TestZeroAllocCBOneSpinObserved(t *testing.T) {
	m := cbOneSpinMachine()
	observeAll(m)
	requireZeroAllocWindows(t, m)
	if st := m.Stats(); st.CBWakes == 0 || st.CBDirAccesses == 0 {
		t.Fatalf("no callback traffic: %+v", st)
	}
}

// A fresh machine holds no cache line storage: an L1 or LLC set gets its
// ways on its first fill. Table 2's 64 LLC banks (256 KB) and 64 L1s
// (32 KB) hold about 10 MB of lines at 64 cores, so building them eagerly
// breaks the bound; the rest of the machine is about 1.4 MB.
func TestNewAllocatesNoLineStorage(t *testing.T) {
	const bound = 2_000_000
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback, ProtocolQuiesce, ProtocolQueueLock} {
		cfg := Default(p)
		if cfg.Cores != 64 {
			t.Fatalf("%s: default machine has %d cores, want 64", p, cfg.Cores)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := New(cfg, nil)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		if n := after.TotalAlloc - before.TotalAlloc; n >= bound {
			t.Errorf("%s: machine.New at 64 cores allocates %d bytes, want under %d", p, n, bound)
		}
	}
}
