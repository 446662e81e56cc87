package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memtypes"
)

// TestTable2Defaults pins the simulated system parameters to Table 2 of
// the paper.
func TestTable2Defaults(t *testing.T) {
	cfg := Default(ProtocolCallback)
	if cfg.Cores != 64 {
		t.Errorf("cores = %d, want 64", cfg.Cores)
	}
	if cfg.CBEntriesPerBank != 4 {
		t.Errorf("callback directory entries per bank = %d, want 4", cfg.CBEntriesPerBank)
	}
	if memtypes.LineBytes != 64 {
		t.Errorf("block size = %d, want 64", memtypes.LineBytes)
	}
	if memtypes.PageBytes != 4096 {
		t.Errorf("page size = %d, want 4KB", memtypes.PageBytes)
	}
	if mem.DefaultL1Latency != 1 {
		t.Errorf("L1 access time = %d, want 1", mem.DefaultL1Latency)
	}
	if mem.DefaultTagLatency != 6 || mem.DefaultDataLatency != 12 {
		t.Errorf("L2 tag/data = %d/%d, want 6/12", mem.DefaultTagLatency, mem.DefaultDataLatency)
	}
	if mem.DefaultMemLatency != 160 {
		t.Errorf("memory access time = %d, want 160", mem.DefaultMemLatency)
	}
	if core.DefaultEntries != 4 {
		t.Errorf("callback dir default entries = %d, want 4", core.DefaultEntries)
	}
	m := New(cfg, nil)
	if m.Mesh.Nodes() != 64 {
		t.Errorf("mesh nodes = %d, want 64 (8x8)", m.Mesh.Nodes())
	}
}

func smoke(t *testing.T, p Protocol) Stats {
	t.Helper()
	cfg := Default(p)
	cfg.Cores = 4
	m := New(cfg, nil)
	flag := memtypes.Addr(0x1000)
	// Core 0 writes through a flag; core 1 spins on it racily.
	wb := isa.NewBuilder()
	wb.Compute(100)
	wb.Imm(isa.R1, uint64(flag))
	wb.Imm(isa.R2, 1)
	wb.StThrough(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)

	rb := isa.NewBuilder()
	rb.Imm(isa.R1, uint64(flag))
	rb.SyncBegin(isa.SyncWait)
	rb.Label("spin")
	rb.LdThrough(isa.R2, isa.R1, 0)
	rb.Beqz(isa.R2, "spin")
	rb.SyncEnd(isa.SyncWait)
	rb.Done()
	m.Load(1, rb.MustBuild(), nil)

	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	return m.Stats()
}

func TestSmokeAllProtocols(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback} {
		st := smoke(t, p)
		if st.Cycles < 100 {
			t.Fatalf("%v: cycles = %d, want >= 100", p, st.Cycles)
		}
		if st.SyncEntries[isa.SyncWait] != 1 {
			t.Fatalf("%v: wait entries = %d, want 1", p, st.SyncEntries[isa.SyncWait])
		}
		if st.Net.FlitHops == 0 {
			t.Fatalf("%v: no network traffic recorded", p)
		}
	}
}

func TestCallbackProtocolBlocksInsteadOfSpinning(t *testing.T) {
	// Under the callback protocol a ld_cb spin performs far fewer LLC
	// accesses than LLC spinning; under backoff-0 it hammers the LLC.
	llc := func(p Protocol) uint64 {
		cfg := Default(p)
		cfg.Cores = 4
		cfg.BackoffLimit = 0
		m := New(cfg, nil)
		flag := memtypes.Addr(0x1000)
		wb := isa.NewBuilder()
		wb.Compute(5000)
		wb.Imm(isa.R1, uint64(flag))
		wb.Imm(isa.R2, 1)
		wb.StThrough(isa.R1, 0, isa.R2)
		wb.Done()
		m.Load(0, wb.MustBuild(), nil)

		rb := isa.NewBuilder()
		rb.Imm(isa.R1, uint64(flag))
		// Guard + blocking-read spin, as the callback flavour would
		// emit; under backoff it degenerates to LLC spinning.
		rb.Label("spin")
		rb.LdThrough(isa.R2, isa.R1, 0)
		rb.Bnez(isa.R2, "exit")
		rb.LdCB(isa.R2, isa.R1, 0)
		rb.Beqz(isa.R2, "spin")
		rb.Label("exit")
		rb.Done()
		m.Load(1, rb.MustBuild(), nil)
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return m.Stats().LLCAccesses
	}
	spin := llc(ProtocolBackoff)
	cb := llc(ProtocolCallback)
	if cb*5 >= spin {
		t.Fatalf("callback LLC accesses (%d) should be far below LLC spinning (%d)", cb, spin)
	}
}

func TestStatsAggregation(t *testing.T) {
	st := smoke(t, ProtocolCallback)
	if st.Instructions == 0 || st.MemOps == 0 {
		t.Fatal("instruction counters empty")
	}
	if st.SyncLatency(isa.SyncWait) <= 0 {
		t.Fatal("sync latency not recorded")
	}
	if st.TotalSyncCycles() == 0 {
		t.Fatal("total sync cycles zero")
	}
}

func TestRunWithoutProgramsErrors(t *testing.T) {
	m := New(Default(ProtocolMESI), nil)
	if err := m.Run(1000); err == nil {
		t.Fatal("expected error with no programs loaded")
	}
}

func TestDeadlockReportsError(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	// A ld_cb that nobody ever satisfies: first read consumes the
	// fresh entry, second blocks forever.
	b := isa.NewBuilder()
	b.Imm(isa.R1, 0x2000)
	b.LdCB(isa.R2, isa.R1, 0)
	b.LdCB(isa.R2, isa.R1, 0)
	b.Done()
	m.Load(0, b.MustBuild(), nil)
	if err := m.Run(100_000); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDiagnoseReportsStuckCores(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	b := isa.NewBuilder()
	b.Imm(isa.R1, 0x2000)
	b.LdCB(isa.R2, isa.R1, 0) // consumes the fresh entry
	b.LdCB(isa.R2, isa.R1, 0) // blocks forever
	b.Done()
	m.Load(0, b.MustBuild(), nil)
	err := m.Run(100_000)
	if err == nil {
		t.Fatal("expected deadlock")
	}
	msg := err.Error()
	for _, want := range []string{"core  0", "ld_cb", "parked in the callback directory"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnosis missing %q:\n%s", want, msg)
		}
	}
}

func TestProtocolStringsAndConfig(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback, ProtocolQuiesce, ProtocolQueueLock} {
		if p.String() == "" {
			t.Fatalf("protocol %d has no name", p)
		}
	}
	if Protocol(99).String() == "" {
		t.Fatal("unknown protocol should print")
	}
	cfg := Default(ProtocolCallback)
	m := New(cfg, nil)
	if m.Config().Protocol != ProtocolCallback {
		t.Fatal("Config accessor broken")
	}
	if len(m.CBDirectories()) != 64 {
		t.Fatalf("callback dirs = %d, want one per bank", len(m.CBDirectories()))
	}
}

func TestSyncLatencyZeroEntries(t *testing.T) {
	var s Stats
	if s.SyncLatency(isa.SyncAcquire) != 0 {
		t.Fatal("no entries should give zero latency")
	}
}

func TestValidateCores(t *testing.T) {
	for _, n := range []int{1, 4, 9, 16, 25, 36, 49, 64} {
		if err := ValidateCores(n); err != nil {
			t.Errorf("ValidateCores(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-1, 0, 2, 7, 63, 65, 81, 100} {
		err := ValidateCores(n)
		if err == nil {
			t.Errorf("ValidateCores(%d) = nil, want error", n)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprint(n)) {
			t.Errorf("ValidateCores(%d) error %q does not name the value", n, err)
		}
	}
	// New panics (with the same message) rather than building a broken
	// machine.
	defer func() {
		if r := recover(); r == nil {
			t.Error("New with 7 cores did not panic")
		} else if !strings.Contains(fmt.Sprint(r), "perfect square") {
			t.Errorf("panic %q does not explain the mesh constraint", r)
		}
	}()
	cfg := Default(ProtocolMESI)
	cfg.Cores = 7
	New(cfg, nil)
}

// TestRunContextCancel pins cooperative cancellation: a canceled context
// stops the simulation between kernel events and is returned verbatim.
func TestRunContextCancel(t *testing.T) {
	build := func() *Machine {
		cfg := Default(ProtocolMESI)
		cfg.Cores = 4
		m := New(cfg, nil)
		// Core 1 spins forever on a flag nobody ever sets: without a
		// context the run only ends at the cycle limit.
		flag := memtypes.Addr(0x1000)
		rb := isa.NewBuilder()
		rb.Imm(isa.R1, uint64(flag))
		rb.Label("spin")
		rb.LdThrough(isa.R2, isa.R1, 0)
		rb.Beqz(isa.R2, "spin")
		rb.Done()
		m.Load(1, rb.MustBuild(), nil)
		return m
	}

	// Pre-canceled: returns immediately with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := build().RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext = %v, want context.Canceled", err)
	}

	// Cancel mid-run from another goroutine: the run must stop well
	// before the cycle limit, and the machine stays inspectable.
	ctx, cancel = context.WithCancel(context.Background())
	m := build()
	done := make(chan error, 1)
	go func() { done <- m.RunContext(ctx, 0) }() // no limit: only the context can stop it
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not observe cancellation")
	}
	if m.Stats().Cycles != 0 && m.K.Now() == 0 {
		t.Fatal("canceled machine left inconsistent")
	}
	if m.Diagnose() == "" {
		t.Fatal("Diagnose empty after cancellation")
	}

	// A nil context behaves exactly like Run: the limit error fires.
	if err := build().RunContext(nil, 10_000); err == nil {
		t.Fatal("nil-context RunContext ignored the cycle limit")
	}
}

// loadSmoke loads the two-core flag hand-off workload used by the smoke
// tests: core 0 computes then writes through a flag, core 1 spins on it.
func loadSmoke(m *Machine) {
	flag := memtypes.Addr(0x1000)
	wb := isa.NewBuilder()
	wb.Compute(100)
	wb.Imm(isa.R1, uint64(flag))
	wb.Imm(isa.R2, 1)
	wb.StThrough(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)

	rb := isa.NewBuilder()
	rb.Imm(isa.R1, uint64(flag))
	rb.SyncBegin(isa.SyncWait)
	rb.Label("spin")
	rb.LdThrough(isa.R2, isa.R1, 0)
	rb.Beqz(isa.R2, "spin")
	rb.SyncEnd(isa.SyncWait)
	rb.Done()
	m.Load(1, rb.MustBuild(), nil)
}

func runSmoke(t *testing.T, m *Machine) Stats {
	t.Helper()
	loadSmoke(m)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Quiesce(100_000); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

// The heap-only reference kernel and the two-tier wheel kernel must
// produce byte-identical machine Stats.
func TestHeapOnlyKernelIdenticalStats(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback} {
		cfg := Default(p)
		cfg.Cores = 4
		wheel := runSmoke(t, New(cfg, nil))
		cfg.HeapOnlyKernel = true
		heap := runSmoke(t, New(cfg, nil))
		// The configs differ only in the kernel flag, which Stats must
		// not observe.
		if !reflect.DeepEqual(wheel, heap) {
			t.Fatalf("%v: wheel and heap kernels diverge:\nwheel %+v\nheap  %+v", p, wheel, heap)
		}
	}
}
