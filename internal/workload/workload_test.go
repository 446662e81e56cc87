package workload

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

func TestNineteenProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 19 {
		t.Fatalf("profiles = %d, want 19 (entire Splash-2 + PARSEC subset)", len(ps))
	}
	seen := map[string]bool{}
	splash, parsec := 0, 0
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "splash2":
			splash++
		case "parsec":
			parsec++
		default:
			t.Fatalf("profile %q has unknown suite %q", p.Name, p.Suite)
		}
		if p.Phases < 1 {
			t.Fatalf("profile %q has no phases", p.Name)
		}
	}
	if splash != 12 || parsec != 7 {
		t.Fatalf("suites = %d splash2 + %d parsec, want 12 + 7", splash, parsec)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("ocean")
	if err != nil || p.Name != "ocean" {
		t.Fatalf("ByName(ocean) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// ByName scans the one profile table without copying it, and Profiles
// hands out a copy a caller may change without touching the table.
func TestByNameAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { ByName("swaptions") }); allocs != 0 {
		t.Fatalf("ByName allocates %.0f times a call, want 0", allocs)
	}
	ps := Profiles()
	ps[0].Phases = -1
	if p, _ := ByName(ps[0].Name); p.Phases == -1 {
		t.Fatal("changing the slice Profiles returned changed the profile table")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("barnes")
	g1 := Generate(p, 4, StyleScalable, synclib.FlavorCBOne)
	g2 := Generate(p, 4, StyleScalable, synclib.FlavorCBOne)
	if len(g1.Programs) != 4 {
		t.Fatalf("programs = %d, want 4", len(g1.Programs))
	}
	for tid := range g1.Programs {
		a, b := g1.Programs[tid], g2.Programs[tid]
		if a.Len() != b.Len() {
			t.Fatalf("thread %d: nondeterministic generation", tid)
		}
		for i := range a.Len() {
			if *a.At(i) != *b.At(i) {
				t.Fatalf("thread %d instr %d differs", tid, i)
			}
		}
	}
}

// A 64-core thread set is built through one builder, so its programs
// share one instruction table: the 64 radiosity programs hold 101,787
// instructions, 2,532 of them distinct. Generating the set allocated
// 7.17 MB when each program held its own instructions.
func TestThreadSetSharesOneTable(t *testing.T) {
	p, err := ByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := Generate(p, 64, StyleScalable, synclib.FlavorCBOne)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 3<<20 {
		t.Errorf("Generate allocates %d bytes for the set, want at most %d", n, 3<<20)
	}
	distinct := map[*isa.Instr]bool{}
	done := g.Programs[0].At(g.Programs[0].Len() - 1)
	for tid, prog := range g.Programs {
		for pc := range prog.Len() {
			distinct[prog.At(pc)] = true
		}
		if prog.At(prog.Len()-1) != done {
			t.Fatalf("thread %d's done is not thread 0's: the set holds more than one table", tid)
		}
	}
	if len(distinct) >= 3000 {
		t.Fatalf("the set holds %d table entries, want fewer than 3,000", len(distinct))
	}
}

func TestFlavorFor(t *testing.T) {
	if FlavorFor(true, false, false) != synclib.FlavorMESI {
		t.Fatal("invalidation should map to MESI flavour")
	}
	if FlavorFor(false, false, false) != synclib.FlavorBackoff {
		t.Fatal("default should map to backoff flavour")
	}
	if FlavorFor(false, true, false) != synclib.FlavorCBAll {
		t.Fatal("callback should map to CB-All")
	}
	if FlavorFor(false, true, true) != synclib.FlavorCBOne {
		t.Fatal("callback+one should map to CB-One")
	}
}

// runProfile executes a profile end to end on a small machine.
func runProfile(t *testing.T, name string, proto machine.Protocol, style SyncStyle) machine.Stats {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	f := FlavorFor(proto == machine.ProtocolMESI, proto == machine.ProtocolCallback, false)
	const cores = 9
	g := Generate(p, cores, style, f)
	cfg := machine.Default(proto)
	cfg.Cores = cores
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatalf("%s on %v: %v", name, proto, err)
	}
	return m.Stats()
}

func TestAllProfilesRunToCompletion(t *testing.T) {
	// Every profile must terminate under every protocol (scalable
	// style); this is the whole-system integration test.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, proto := range []machine.Protocol{
				machine.ProtocolMESI, machine.ProtocolBackoff, machine.ProtocolCallback,
			} {
				st := runProfile(t, name, proto, StyleScalable)
				if st.Cycles == 0 {
					t.Fatalf("%v: zero cycles", proto)
				}
			}
		})
	}
}

func TestNaiveStyleRuns(t *testing.T) {
	for _, proto := range []machine.Protocol{
		machine.ProtocolMESI, machine.ProtocolBackoff, machine.ProtocolCallback,
	} {
		st := runProfile(t, "radiosity", proto, StyleNaive)
		if st.Cycles == 0 {
			t.Fatalf("%v: zero cycles", proto)
		}
	}
}

func TestLockHeavyProfileExercisesCallbacks(t *testing.T) {
	st := runProfile(t, "fluidanimate", machine.ProtocolCallback, StyleScalable)
	if st.CBDirAccesses == 0 {
		t.Fatal("lock-heavy profile never touched the callback directory")
	}
}

func TestGenerateCustomCombos(t *testing.T) {
	p, _ := ByName("radiosity")
	for _, lk := range []LockKind{LockCLH, LockTTAS} {
		for _, bk := range []BarrierKind{BarrierTree, BarrierSR} {
			g := GenerateCustom(p, 4, lk, bk, synclib.FlavorCBOne)
			if len(g.Programs) != 4 {
				t.Fatalf("%v+%v: %d programs", lk, bk, len(g.Programs))
			}
		}
	}
	if s := LockTTAS.String() + BarrierSR.String() + LockCLH.String() + BarrierTree.String(); s == "" {
		t.Fatal("kind stringers broken")
	}
	if lk, bk := StyleNaive.Kinds(); lk != LockTTAS || bk != BarrierSR {
		t.Fatal("naive kinds wrong")
	}
	if lk, bk := StyleScalable.Kinds(); lk != LockCLH || bk != BarrierTree {
		t.Fatal("scalable kinds wrong")
	}
}

// TestDataClassification: the bulk of each thread's data partition is
// private (excluded from coherence); only boundary lines are shared.
func TestDataClassification(t *testing.T) {
	p, _ := ByName("fft")
	g := Generate(p, 4, StyleScalable, synclib.FlavorBackoff)
	// The generator forms data addresses with an Imm into the base
	// register immediately before each access; count accesses on each
	// side of the private/shared split.
	privOps, sharedOps := 0, 0
	for _, prog := range g.Programs {
		var regImm [isa.NumRegs]uint64
		for pc := range prog.Len() {
			in := prog.At(pc)
			if in.Op == isa.Imm {
				regImm[in.Rd] = in.ImmVal
				continue
			}
			if in.Op != isa.Ld && in.Op != isa.St {
				continue
			}
			if synclib.IsPrivate(memtypes.Addr(regImm[in.Base]) + memtypes.Addr(in.Offset)) {
				privOps++
			} else {
				sharedOps++
			}
		}
	}
	if privOps == 0 || sharedOps == 0 {
		t.Fatalf("priv=%d shared=%d: workloads must touch both private partitions and shared boundaries", privOps, sharedOps)
	}
	if privOps < sharedOps {
		t.Fatalf("priv=%d shared=%d: the bulk of data should be private, as in the paper's applications", privOps, sharedOps)
	}
	if !synclib.IsPrivate(synclib.PrivateBase) {
		t.Fatal("PrivateBase should classify private")
	}
	if synclib.IsPrivate(synclib.SharedBase) {
		t.Fatal("SharedBase should classify shared")
	}
	// Run under the backoff protocol and check both kinds of traffic
	// exist: private lines are fetched but never written through by
	// fences.
	cfg := machine.Default(machine.ProtocolBackoff)
	cfg.Cores = 4
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestRunsAreDeterministic: two identical runs must produce bit-identical
// statistics — the simulator's core design property.
func TestRunsAreDeterministic(t *testing.T) {
	run := func() machine.Stats {
		p, _ := ByName("dedup")
		g := Generate(p, 9, StyleScalable, synclib.FlavorCBOne)
		cfg := machine.Default(machine.ProtocolCallback)
		cfg.Cores = 9
		m := machine.New(cfg, synclib.IsPrivate)
		for a, v := range g.Layout.Init {
			m.Store.StoreWord(a, v)
		}
		for tid, prog := range g.Programs {
			m.Load(tid, prog, nil)
		}
		if err := m.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs:\n%+v\nvs\n%+v", a, b)
	}
}
