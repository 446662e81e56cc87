package workload

import (
	"testing"

	"repro/internal/synclib"
)

// TestAllProfilesVerifyClean proves every built-in workload profile
// generates programs that pass static verification — with zero waivers:
// the only trust extended is the footprint's indirection allowance,
// which the layout grants itself only when a CLH lock is allocated.
func TestAllProfilesVerifyClean(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 19 {
		t.Fatalf("expected 19 built-in profiles, have %d", len(profiles))
	}
	flavors := []synclib.Flavor{
		synclib.FlavorMESI, synclib.FlavorBackoff,
		synclib.FlavorCBAll, synclib.FlavorCBOne,
	}
	styles := []SyncStyle{StyleScalable, StyleNaive}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, style := range styles {
				for _, f := range flavors {
					g := Generate(p, 8, style, f)
					set := g.Verify()
					if err := set.Err(); err != nil {
						t.Fatalf("%s/%v/%v: %v", p.Name, style, f, err)
					}
					// Every thread's barrier participation must be
					// statically determinate and identical.
					for tid, r := range set.Threads {
						if r.Barriers < 0 {
							t.Fatalf("%s/%v/%v thread %d: barrier count indeterminate", p.Name, style, f, tid)
						}
						if r.Budget == 0 {
							t.Fatalf("%s/%v/%v thread %d: zero budget", p.Name, style, f, tid)
						}
					}
				}
			}
		})
	}
}

// TestFootprintIndirection checks the CLH-only indirection allowance:
// naive-style workloads (T&T&S + SR barrier) need none.
func TestFootprintIndirection(t *testing.T) {
	p, err := ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	if fp := Generate(p, 4, StyleNaive, synclib.FlavorMESI).Footprint(); fp.AllowIndirect {
		t.Fatal("naive style should not need the indirection allowance")
	}
	if fp := Generate(p, 4, StyleScalable, synclib.FlavorMESI).Footprint(); !fp.AllowIndirect {
		t.Fatal("scalable style (CLH) must carry the indirection allowance")
	}
}

// TestMixedStyleVerifies covers the Figure 23 mix (T&T&S locks with the
// tree barrier).
func TestMixedStyleVerifies(t *testing.T) {
	p, err := ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	g := GenerateCustom(p, 8, LockTTAS, BarrierTree, synclib.FlavorCBOne)
	if err := g.Verify().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadsAllocations pins the verifier's allocation-free design:
// one verifier serves a whole thread set and keeps its buffers, and the
// abstract interpreter transfers scratch copies of flat states, so the
// allocations of verifying a set grow with its threads, not with its
// instructions (a clone per visit and a slice per edge made 330,367 for
// this 16-core set).
func TestThreadsAllocations(t *testing.T) {
	p, err := ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	g := Generate(p, 16, StyleScalable, synclib.FlavorCBOne)
	if err := g.Verify().Err(); err != nil {
		t.Fatal(err)
	}
	const perThread = 16
	allocs := testing.AllocsPerRun(5, func() { g.Verify() })
	if limit := float64(perThread * len(g.Programs)); allocs > limit {
		t.Fatalf("verifying %d threads allocates %.0f times, want at most %.0f (%d per thread)",
			len(g.Programs), allocs, limit, perThread)
	}
	t.Logf("%d threads: %.0f allocations", len(g.Programs), allocs)
}
