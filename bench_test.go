package repro

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation section (Section 5), at a reduced 16-core scale so
// `go test -bench=.` completes in minutes. Each iteration performs one
// full regeneration of its figure; b.N therefore stays small and the
// interesting output is the reported metrics, not ns/op. Use
// `cmd/experiments` for the paper's full 64-core scale.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/sim"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// benchOptions is the reduced scale used by all figure benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		Cores:      16,
		Benchmarks: []string{"radiosity", "ocean", "fft", "fluidanimate", "dedup"},
	}
}

// reportRatio publishes a figure metric through the benchmark framework.
func reportRatio(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

// BenchmarkTable1Primitives measures the raw cost of each Table 1
// synchronization primitive on an otherwise idle callback machine: one
// racy operation issued from a corner core.
func BenchmarkTable1Primitives(b *testing.B) {
	ops := []struct {
		name string
		kind memtypes.OpKind
	}{
		{"ld_through", memtypes.OpReadThrough},
		{"ld_cb", memtypes.OpReadCB},
		{"st_cb0", memtypes.OpWriteCB0},
		{"st_cb1", memtypes.OpWriteCB1},
		{"st_through", memtypes.OpWriteThrough},
		{"rmw_tas", memtypes.OpRMW},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				cfg := machine.Default(machine.ProtocolCallback)
				cfg.Cores = 16
				m := machine.New(cfg, nil)
				pb := isa.NewBuilder()
				pb.Imm(isa.R1, 0x4000)
				switch op.kind {
				case memtypes.OpReadThrough:
					pb.LdThrough(isa.R2, isa.R1, 0)
				case memtypes.OpReadCB:
					pb.LdCB(isa.R2, isa.R1, 0) // fresh entry: satisfied
				case memtypes.OpWriteCB0:
					pb.StCB0(isa.R1, 0, isa.R2)
				case memtypes.OpWriteCB1:
					pb.StCB1(isa.R1, 0, isa.R2)
				case memtypes.OpWriteThrough:
					pb.StThrough(isa.R1, 0, isa.R2)
				case memtypes.OpRMW:
					pb.TAS(isa.R2, isa.R1, 0, false, memtypes.CBZero)
				}
				pb.Done()
				m.Load(0, pb.MustBuild(), nil)
				if err := m.Run(100_000); err != nil {
					b.Fatal(err)
				}
				total += m.Stats().Cycles
			}
			reportRatio(b, "cycles/op", float64(total)/float64(b.N))
		})
	}
}

// BenchmarkKernelHotPath measures the event-kernel inner loop: one
// schedule + one step per iteration. This is the path every simulated
// cycle exercises; it must report 0 allocs/op.
func BenchmarkKernelHotPath(b *testing.B) {
	k := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, fn)
		k.Step()
	}
}

// BenchmarkSuiteParallel compares a reduced Figure 21 sweep run serially
// against the worker-pool fan-out. On a multi-core host the parallel
// sub-benchmark's ns/op drops roughly with min(GOMAXPROCS, cells); the
// results themselves are identical either way (see
// TestParallelSuiteMatchesSerial).
func BenchmarkSuiteParallel(b *testing.B) {
	setups := experiments.StandardSetups()
	for _, par := range []struct {
		name string
		n    int
	}{{"serial", 1}, {"parallel", 8}} {
		b.Run(par.name, func(b *testing.B) {
			o := benchOptions()
			o.Benchmarks = []string{"radiosity", "ocean", "fft"}
			o.Parallelism = par.n
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunSuite(setups, workload.StyleScalable, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Machine measures construction of the full Table 2
// machine (64 tiles, caches, directories).
func BenchmarkTable2Machine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.Default(machine.ProtocolCallback), nil)
		if m.Mesh.Nodes() != 64 {
			b.Fatal("bad machine")
		}
	}
}

// BenchmarkFigure1 regenerates the motivation figure (Invalidation vs
// back-off on CLH and TreeSR spin-waiting).
func BenchmarkFigure1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		scal, err := experiments.RunSuite(experiments.StandardSetups()[:5], workload.StyleScalable, o)
		if err != nil {
			b.Fatal(err)
		}
		llc, lat := experiments.Fig1(scal)
		if i == 0 {
			row := llc.Row("CLH")
			reportRatio(b, "CLH-llc-backoff0-vs-inval", row[1]/nonzero(row[0]))
			lrow := lat.Row("TreeSR barrier")
			reportRatio(b, "TreeSR-lat-backoff15-vs-inval", lrow[4]/nonzero(lrow[0]))
		}
	}
}

// BenchmarkFigure20 regenerates the per-construct synchronization
// behaviour from the two suite sweeps.
func BenchmarkFigure20(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		scal, err := experiments.RunSuite(experiments.StandardSetups(), workload.StyleScalable, o)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := experiments.RunSuite(experiments.StandardSetups(), workload.StyleNaive, o)
		if err != nil {
			b.Fatal(err)
		}
		llc, _ := experiments.Fig20(scal, naive)
		if i == 0 {
			ttas := llc.Row("T&T&S")
			reportRatio(b, "TTAS-llc-CBOne-vs-CBAll", ttas[6]/nonzero(ttas[5]))
		}
	}
}

// BenchmarkFigure21 regenerates execution time and traffic across the
// benchmark subset, reporting the geomean CB-One ratios.
func BenchmarkFigure21(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		scal, err := experiments.RunSuite(experiments.StandardSetups(), workload.StyleScalable, o)
		if err != nil {
			b.Fatal(err)
		}
		timeT, trafT := experiments.SuiteToFig21(scal)
		if i == 0 {
			reportRatio(b, "time-CBOne-vs-inval", timeT.Row("geomean")[6])
			reportRatio(b, "traffic-CBOne-vs-inval", trafT.Row("geomean")[6])
		}
	}
}

// BenchmarkFigure22 regenerates the energy breakdown.
func BenchmarkFigure22(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		scal, err := experiments.RunSuite(experiments.StandardSetups(), workload.StyleScalable, o)
		if err != nil {
			b.Fatal(err)
		}
		e := experiments.Fig22(scal)
		if i == 0 {
			reportRatio(b, "energy-CBOne-vs-inval", e.Row("CB-One")[4])
			reportRatio(b, "L1energy-inval", e.Row("Invalidation")[0])
		}
	}
}

// BenchmarkFigure23 regenerates the naive-vs-scalable lock comparison
// with the TreeSR barrier fixed.
func BenchmarkFigure23(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"radiosity", "ocean", "dedup"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig23(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRatio(b, "time-CBOne-TTAS", t.Row("CB-One + T&T&S")[0])
			reportRatio(b, "time-CBOne-CLH", t.Row("CB-One + CLH")[0])
		}
	}
}

// BenchmarkSensitivityEntries regenerates the Section 5.2 directory-size
// sensitivity result.
func BenchmarkSensitivityEntries(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := experiments.SensitivityEntries(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gm := t.Row("geomean")
			reportRatio(b, "time-256-vs-4-entries", gm[3])
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// runTTASMicro runs the contended T&T&S micro on a callback machine with
// the given knobs and returns the stats.
func runTTASMicro(b *testing.B, cfgMod func(*machine.Config), lockMod func(*synclib.TTASLock)) machine.Stats {
	b.Helper()
	const cores, iters = 16, 8
	lay := synclib.NewLayout()
	lock := synclib.NewTTASLock(lay)
	if lockMod != nil {
		lockMod(lock)
	}
	counter := lay.SharedLine()
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = cores
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range lay.Init {
		m.Store.StoreWord(a, v)
	}
	f := synclib.FlavorCBOne
	for tid := 0; tid < cores; tid++ {
		pb := isa.NewBuilder()
		lock.EmitInit(pb, f, tid)
		pb.Imm(isa.R1, iters)
		pb.Label("loop")
		pb.Compute(uint64(500 + tid*113%1500))
		lock.EmitAcquire(pb, f, tid)
		pb.Imm(isa.R2, uint64(counter))
		pb.Ld(isa.R3, isa.R2, 0)
		pb.Addi(isa.R3, isa.R3, 1)
		pb.St(isa.R2, 0, isa.R3)
		pb.Compute(100)
		lock.EmitRelease(pb, f, tid)
		pb.Addi(isa.R1, isa.R1, ^uint64(0))
		pb.Bnez(isa.R1, "loop")
		pb.Done()
		m.Load(tid, pb.MustBuild(), nil)
	}
	if err := m.Run(200_000_000); err != nil {
		b.Fatal(err)
	}
	if got := m.Store.Load(counter); got != cores*iters {
		b.Fatalf("mutual exclusion violated: %d", got)
	}
	return m.Stats()
}

// BenchmarkAblationWakePolicy compares the paper's round-robin write_CB1
// policy against always-lowest-ID.
func BenchmarkAblationWakePolicy(b *testing.B) {
	for _, p := range []struct {
		name   string
		policy core.WakePolicy
	}{{"round-robin", core.WakeRoundRobin}, {"lowest-id", core.WakeLowestID}} {
		b.Run(p.name, func(b *testing.B) {
			var cycles, wakes uint64
			for i := 0; i < b.N; i++ {
				st := runTTASMicro(b, func(c *machine.Config) { c.WakePolicy = p.policy }, nil)
				cycles += st.Cycles
				wakes += st.CBWakes
			}
			reportRatio(b, "cycles", float64(cycles)/float64(b.N))
			reportRatio(b, "wakes", float64(wakes)/float64(b.N))
		})
	}
}

// BenchmarkAblationTagGranularity compares word-granular callback tags
// (the paper's choice) against line-granular ones.
func BenchmarkAblationTagGranularity(b *testing.B) {
	for _, g := range []struct {
		name string
		line bool
	}{{"word", false}, {"line", true}} {
		b.Run(g.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st := runTTASMicro(b, func(c *machine.Config) { c.CBLineGranular = g.line }, nil)
				cycles += st.Cycles
			}
			reportRatio(b, "cycles", float64(cycles)/float64(b.N))
		})
	}
}

// BenchmarkAblationEviction compares eviction that avoids entries with
// waiters against plain LRU, on a deliberately thrashing configuration:
// three contended locks whose words map to the same LLC bank, with a
// 2-entry directory on that bank, so installs must evict live entries.
func BenchmarkAblationEviction(b *testing.B) {
	run := func(policy core.EvictPolicy) machine.Stats {
		const cores, iters, nLocks = 16, 6, 3
		cfg := machine.Default(machine.ProtocolCallback)
		cfg.Cores = cores
		cfg.CBEntriesPerBank = 2
		cfg.CBEvict = policy
		m := machine.New(cfg, synclib.IsPrivate)
		// Three lock words on bank 0: line indices that are multiples
		// of the core count map to the same bank.
		var locks []*synclib.TTASLock
		for i := 0; i < nLocks; i++ {
			locks = append(locks, &synclib.TTASLock{
				L: synclib.SharedBase + memtypes.Addr(i*cores*memtypes.LineBytes),
			})
		}
		counter := synclib.SharedBase + memtypes.Addr(nLocks*cores*memtypes.LineBytes) + 64
		f := synclib.FlavorCBOne
		for tid := 0; tid < cores; tid++ {
			lock := locks[tid%nLocks]
			pb := isa.NewBuilder()
			pb.Imm(isa.R1, iters)
			pb.Label("loop")
			pb.Compute(uint64(200 + tid*97%900))
			lock.EmitAcquire(pb, f, tid)
			pb.Imm(isa.R2, uint64(counter))
			pb.Ld(isa.R3, isa.R2, 0)
			pb.Addi(isa.R3, isa.R3, 1)
			pb.St(isa.R2, 0, isa.R3)
			lock.EmitRelease(pb, f, tid)
			pb.Addi(isa.R1, isa.R1, ^uint64(0))
			pb.Bnez(isa.R1, "loop")
			pb.Done()
			m.Load(tid, pb.MustBuild(), nil)
		}
		if err := m.Run(500_000_000); err != nil {
			b.Fatal(err)
		}
		return m.Stats()
	}
	for _, p := range []struct {
		name   string
		policy core.EvictPolicy
	}{{"lru-no-cb", core.EvictLRUNoCB}, {"plain-lru", core.EvictLRU}} {
		b.Run(p.name, func(b *testing.B) {
			var stale, evictions, cycles uint64
			for i := 0; i < b.N; i++ {
				st := run(p.policy)
				stale += st.CBStaleWakes
				evictions += st.CBEvictions
				cycles += st.Cycles
			}
			reportRatio(b, "stale-wakes", float64(stale)/float64(b.N))
			reportRatio(b, "evictions", float64(evictions)/float64(b.N))
			reportRatio(b, "cycles", float64(cycles)/float64(b.N))
		})
	}
}

// BenchmarkAblationRMWWrite compares the paper's st_cb0 write half for
// successful acquires (Figure 6) against st_cb1 (Figure 5's premature
// wake-ups).
func BenchmarkAblationRMWWrite(b *testing.B) {
	for _, v := range []struct {
		name  string
		force bool
	}{{"st_cb0", false}, {"st_cb1", true}} {
		b.Run(v.name, func(b *testing.B) {
			var wakes, traffic uint64
			for i := 0; i < b.N; i++ {
				st := runTTASMicro(b, nil, func(l *synclib.TTASLock) { l.ForceCB1Write = v.force })
				wakes += st.CBWakes
				traffic += st.Net.FlitHops
			}
			reportRatio(b, "wakes", float64(wakes)/float64(b.N))
			reportRatio(b, "flit-hops", float64(traffic)/float64(b.N))
		})
	}
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// BenchmarkAblationNoCContention checks that the protocol conclusions are
// not artifacts of the link-contention model: an ideal (contentionless)
// interconnect must preserve the CB-vs-Invalidation ordering.
func BenchmarkAblationNoCContention(b *testing.B) {
	for _, mode := range []struct {
		name  string
		ideal bool
	}{{"contended", false}, {"ideal", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st := runTTASMicro(b, func(c *machine.Config) { c.IdealNoC = mode.ideal }, nil)
				cycles += st.Cycles
			}
			reportRatio(b, "cycles", float64(cycles)/float64(b.N))
		})
	}
}

// BenchmarkExtensionQuiesce regenerates the MWAIT comparison at reduced
// scale.
func BenchmarkExtensionQuiesce(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"radiosity", "dedup"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtensionQuiesce(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRatio(b, "quiesce-L1-vs-inval", t.Row("Quiesce")[2])
			reportRatio(b, "CBOne-time-vs-inval", t.Row("CB-One")[0])
		}
	}
}

// BenchmarkExtensionLocks regenerates the five-lock comparison.
func BenchmarkExtensionLocks(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		lat, _, err := experiments.ExtensionLocks(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRatio(b, "MCS-CBOne-latency", lat.Row("MCS")[6])
		}
	}
}

// BenchmarkExtensionIdleEnergy regenerates the idle-while-blocked study.
func BenchmarkExtensionIdleEnergy(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"radiosity", "ocean"}
	for i := 0; i < b.N; i++ {
		t, err := experiments.ExtensionIdleEnergy(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRatio(b, "CBOne-idle-fraction", t.Row("CB-One")[0])
		}
	}
}
