package machine

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// DigestCompatible must ignore exactly the knobs that do not change the
// event sequence (chaos spec/seed, watchdog, kernel implementation) and
// distinguish everything that does.
func TestDigestCompatible(t *testing.T) {
	base := Default(ProtocolCallback)
	base.Cores = 4

	same := base
	if !DigestCompatible(base, same) {
		t.Fatal("identical configs must be compatible")
	}

	faulty := base
	faulty.Chaos = &chaos.Spec{EvictStormP: 0.5}
	faulty.ChaosSeed = 7
	faulty.Watchdog = 100_000
	if !DigestCompatible(base, faulty) {
		t.Fatal("chaos/watchdog knobs must not break compatibility (chaos-vs-fault-free bisection)")
	}

	heap := base
	heap.HeapOnlyKernel = true
	if !DigestCompatible(base, heap) {
		t.Fatal("kernel implementation must not break compatibility (wheel-vs-heap bisection)")
	}

	mesi := Default(ProtocolMESI)
	mesi.Cores = 4
	if DigestCompatible(base, mesi) {
		t.Fatal("different protocols must be incompatible (tile state is incommensurable)")
	}

	big := base
	big.Cores = 16
	if DigestCompatible(base, big) {
		t.Fatal("different core counts must be incompatible")
	}
}

// The wheel and heap-only kernels must produce identical full-scope
// digests at every boundary: digests deliberately exclude the kernel's
// resting clock, the one observable difference between them.
func TestDigestKernelVariantsIdentical(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	heapCfg := cfg
	heapCfg.HeapOnlyKernel = true

	w := New(cfg, nil)
	h := New(heapCfg, nil)
	loadSmoke(w)
	loadSmoke(h)
	if wd, hd := w.Digest(ScopeFull), h.Digest(ScopeFull); wd != hd {
		t.Fatalf("initial digests differ: wheel %#x heap %#x", wd, hd)
	}
	for _, boundary := range []uint64{100, 200, 400} {
		wDone, err := w.RunToCycle(nil, boundary)
		if err != nil {
			t.Fatalf("wheel: %v", err)
		}
		hDone, err := h.RunToCycle(nil, boundary)
		if err != nil {
			t.Fatalf("heap: %v", err)
		}
		if wDone != hDone {
			t.Fatalf("kernels disagree on completion at %d: wheel %v heap %v", boundary, wDone, hDone)
		}
		if wd, hd := w.Digest(ScopeFull), h.Digest(ScopeFull); wd != hd {
			t.Fatalf("digests differ at boundary %d: wheel %#x heap %#x\ndiff: %v",
				boundary, wd, hd, DiffComponents(w.ComponentDigests(ScopeFull), h.ComponentDigests(ScopeFull)))
		}
	}
}

// ComponentDigests/DiffComponents: identical machines diff empty;
// advancing one produces a named, deterministic diff; digesting is
// read-only (digest twice, same answer, same Stats).
func TestComponentDigestsDiff(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	a := New(cfg, nil)
	b := New(cfg, nil)
	loadSmoke(a)
	loadSmoke(b)

	if diff := DiffComponents(a.ComponentDigests(ScopeFull), b.ComponentDigests(ScopeFull)); len(diff) != 0 {
		t.Fatalf("identical machines diff: %v", diff)
	}

	statsBefore := a.Stats()
	d1 := a.Digest(ScopeFull)
	d2 := a.Digest(ScopeFull)
	if d1 != d2 {
		t.Fatalf("digesting is not idempotent: %#x then %#x", d1, d2)
	}
	if statsAfter := a.Stats(); !reflect.DeepEqual(statsBefore, statsAfter) {
		t.Fatalf("digesting perturbed Stats:\nbefore %+v\nafter  %+v", statsBefore, statsAfter)
	}

	if done, err := a.RunToCycle(nil, smokeEnd(t, cfg)/2); err != nil || done {
		t.Fatalf("RunToCycle: done=%v err=%v", done, err)
	}
	diff := DiffComponents(a.ComponentDigests(ScopeFull), b.ComponentDigests(ScopeFull))
	if len(diff) == 0 {
		t.Fatal("advanced machine does not diff against its starting state")
	}
	diff2 := DiffComponents(a.ComponentDigests(ScopeFull), b.ComponentDigests(ScopeFull))
	if !reflect.DeepEqual(diff, diff2) {
		t.Fatalf("diff is not deterministic: %v vs %v", diff, diff2)
	}
}
