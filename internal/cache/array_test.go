package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/digest"
	"repro/internal/memtypes"
)

type testState struct {
	v    int
	data memtypes.Line
}

func TestGeometry(t *testing.T) {
	a := NewArray[testState](32*1024, 4) // the paper's L1
	if a.Sets() != 128 {
		t.Fatalf("32KB/4-way: sets = %d, want 128", a.Sets())
	}
	if a.Assoc() != 4 {
		t.Fatalf("assoc = %d, want 4", a.Assoc())
	}
	b := NewArray[testState](256*1024, 16) // the paper's LLC bank
	if b.Sets() != 256 {
		t.Fatalf("256KB/16-way: sets = %d, want 256", b.Sets())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	a := NewArray[testState](4096, 2)
	addr := memtypes.Addr(0x1000)
	if a.Lookup(addr) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	if a.Victim(addr).Valid {
		t.Fatal("eviction from empty cache")
	}
	line := a.Allocate(addr)
	line.State.v = 42
	line.State.data[3] = 99
	got := a.Lookup(addr + 8) // any address within the same line
	if got == nil {
		t.Fatal("miss after allocate")
	}
	if got.State.v != 42 || got.State.data[3] != 99 {
		t.Fatal("payload lost")
	}
	if a.Accesses != 2 || a.Hits != 1 {
		t.Fatalf("accesses=%d hits=%d, want 2/1", a.Accesses, a.Hits)
	}
}

// An LLC bank's lines carry no payload: tag, valid bit and LRU stamp
// only (data values live in the global store).
func TestTagOnlyLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(Line[struct{}]{}); n > 24 {
		t.Fatalf("Line[struct{}] is %d bytes, want at most 24", n)
	}
}

// allocatedSets counts the sets that hold line storage.
func allocatedSets[P any](a *Array[P]) int {
	n := 0
	for _, set := range a.sets {
		if set != nil {
			n++
		}
	}
	return n
}

// A set holds line storage only once a line is installed in it. Reads,
// invalidations and scans of untouched sets miss without allocating and
// leave them unallocated; Victim gives its own set ways and no other.
func TestSetsAllocatedOnFirstFill(t *testing.T) {
	a := NewArray[struct{}](256*1024, 16) // the paper's LLC bank
	if n := allocatedSets(a); n != 0 {
		t.Fatalf("fresh array holds %d allocated sets, want 0", n)
	}
	h := digest.New()
	visited := 0
	visit := func(*Line[struct{}]) { visited++ }
	misses := 0
	allocs := testing.AllocsPerRun(10, func() {
		for s := 0; s < a.Sets(); s++ {
			addr := memtypes.Addr(s * memtypes.LineBytes)
			if a.Lookup(addr) == nil && a.Peek(addr) == nil && !a.Invalidate(addr) {
				misses++
			}
		}
		visited += a.CountValid()
		a.ForEach(visit)
		a.Digest(h, nil)
	})
	if allocs != 0 {
		t.Errorf("reads and scans of untouched sets allocate %.1f times per run, want 0", allocs)
	}
	if want := 11 * a.Sets(); misses != want || visited != 0 {
		t.Errorf("%d of %d probes missed and %d lines were visited, want all misses and none", misses, want, visited)
	}
	if n := allocatedSets(a); n != 0 {
		t.Fatalf("reads and scans allocated %d sets, want 0", n)
	}

	addr := memtypes.Addr(0x12340)
	s := a.setIndex(addr)
	if a.Victim(addr).Valid {
		t.Fatal("victim in an untouched set is valid")
	}
	if n := allocatedSets(a); n != 1 || len(a.sets[s]) != a.Assoc() {
		t.Fatalf("Victim left %d allocated sets (set %d has %d ways), want only set %d with %d",
			n, s, len(a.sets[s]), s, a.Assoc())
	}
	a.Allocate(addr)
	if !a.Invalidate(addr) {
		t.Fatal("invalidate missed the installed line")
	}
	if n := allocatedSets(a); n != 1 || a.sets[s] == nil {
		t.Fatalf("after Allocate and Invalidate %d sets are allocated (set %d: %v), want set %d kept",
			n, s, a.sets[s] != nil, s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: 128 bytes total.
	a := NewArray[testState](128, 2)
	a0 := memtypes.Addr(0)
	a1 := memtypes.Addr(0x1000)
	a2 := memtypes.Addr(0x2000)
	a.Allocate(a0)
	a.Allocate(a1)
	a.Lookup(a0) // a0 now MRU, a1 LRU
	if v := a.Victim(a2); !v.Valid || v.Addr != a1 {
		t.Fatalf("victim %+v, want line %s", v, a1)
	}
	a.Allocate(a2)
	if a.Peek(a0) == nil || a.Peek(a2) == nil || a.Peek(a1) != nil {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := NewArray[testState](128, 2)
	a.Allocate(0)
	v := a.Victim(0x1000)
	if v.Valid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray[testState](4096, 4)
	a.Allocate(0x40)
	if !a.Invalidate(0x40) {
		t.Fatal("invalidate missed present line")
	}
	if a.Invalidate(0x40) {
		t.Fatal("invalidate hit absent line")
	}
	if a.CountValid() != 0 {
		t.Fatal("line still valid")
	}
}

func TestDoubleAllocatePanics(t *testing.T) {
	a := NewArray[testState](4096, 4)
	a.Allocate(0x80)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate did not panic")
		}
	}()
	a.Allocate(0x80)
}

func TestForEach(t *testing.T) {
	a := NewArray[testState](4096, 4)
	addrs := []memtypes.Addr{0, 0x40, 0x80, 0x1000}
	for _, ad := range addrs {
		a.Allocate(ad)
	}
	// Self-invalidation sweep: drop everything.
	a.ForEach(func(l *Line[testState]) { l.Valid = false })
	if a.CountValid() != 0 {
		t.Fatalf("%d lines survive sweep", a.CountValid())
	}
}

// Property: a cache never holds two lines with the same address, never
// exceeds its capacity, and a Lookup hit always returns the most recently
// allocated content for that line.
func TestPropertyCacheConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewArray[testState](2048, 4) // 8 sets x 4 ways
		shadow := map[memtypes.Addr]int{} // line -> last written state
		next := 1
		for _, op := range ops {
			addr := memtypes.Addr(op) * memtypes.WordBytes
			line := addr.Line()
			if l := a.Lookup(addr); l != nil {
				if shadow[line] != l.State.v {
					return false // stale or corrupted content
				}
			} else {
				if v := a.Victim(addr); v.Valid {
					delete(shadow, v.Addr)
				}
				l := a.Allocate(addr)
				l.State.v = next
				shadow[line] = next
				next++
			}
			if a.CountValid() > 32 {
				return false
			}
			if len(shadow) != a.CountValid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	a := NewArray[testState](32*1024, 4)
	a.Allocate(0x40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(0x40)
	}
}
