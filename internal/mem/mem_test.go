package mem

import (
	"testing"

	"repro/internal/memtypes"
)

func TestStoreRoundtrip(t *testing.T) {
	s := NewStore()
	if s.Load(0x100) != 0 {
		t.Fatal("fresh store should read zero")
	}
	s.StoreWord(0x104, 7) // non-aligned address maps to its word
	if s.Load(0x100) != 7 {
		t.Fatalf("Load = %d, want 7 (same word)", s.Load(0x100))
	}
	s.StoreWord(0x100, 0)
	if s.Load(0x107) != 0 {
		t.Fatal("zero store did not clear")
	}
}

func TestLoadLine(t *testing.T) {
	s := NewStore()
	s.StoreWord(0x40, 1)
	s.StoreWord(0x78, 8)  // last word of line 0x40
	l := s.LoadLine(0x50) // any address within the line
	if l[0] != 1 || l[7] != 8 {
		t.Fatalf("line = %v, want word0=1 word7=8", l)
	}
}

func TestStoreLineWords(t *testing.T) {
	s := NewStore()
	s.StoreWord(0x48, 99) // word 1, should survive masked write
	var l memtypes.Line
	l[0], l[2] = 10, 30
	var mask [memtypes.WordsPerLine]bool
	mask[0], mask[2] = true, true
	s.StoreLineWords(0x40, l, mask)
	if s.Load(0x40) != 10 || s.Load(0x50) != 30 {
		t.Fatal("masked words not written")
	}
	if s.Load(0x48) != 99 {
		t.Fatal("unmasked word clobbered")
	}
}

func TestBankHitMissLatency(t *testing.T) {
	b := NewBank()
	lat := b.Access(0x1000, true, 0)
	if lat != DefaultDataLatency+DefaultMemLatency {
		t.Fatalf("cold access latency = %d, want %d", lat, DefaultDataLatency+DefaultMemLatency)
	}
	lat = b.Access(0x1000, true, 0)
	if lat != DefaultDataLatency {
		t.Fatalf("hit latency = %d, want %d", lat, DefaultDataLatency)
	}
	lat = b.Access(0x1008, false, 0)
	if lat != DefaultTagLatency {
		t.Fatalf("tag-only hit latency = %d, want %d", lat, DefaultTagLatency)
	}
	st := b.Stats()
	if st.Accesses != 3 || st.Misses != 1 || st.DataAccesses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBankSyncAttribution(t *testing.T) {
	b := NewBank()
	b.Access(0x40, true, 2)
	b.Access(0x40, true, 0)
	b.Access(0x40, true, 2)
	if got := b.Stats().SyncAccesses; got != 2 {
		t.Fatalf("SyncAccesses = %d, want 2", got)
	}
}

func TestBankEvictionSilent(t *testing.T) {
	b := NewBank()
	// 256KB / 64B = 4096 lines; fill more than capacity within one set
	// by striding the set-index distance: sets = 256, so addresses
	// 64*256 apart collide. 17 collides past 16 ways.
	stride := memtypes.Addr(64 * 256)
	for i := memtypes.Addr(0); i < 17; i++ {
		b.Access(i*stride, true, 0)
	}
	if b.Present(0) {
		t.Fatal("line 0 should have been evicted (LRU)")
	}
	// Re-access pays memory latency again.
	if lat := b.Access(0, true, 0); lat != DefaultDataLatency+DefaultMemLatency {
		t.Fatalf("post-eviction latency = %d", lat)
	}
}

// A miss that evicts a resident line drops it without allocating: one
// 16-way set is filled, then every access brings in a new line.
func TestBankEvictingAccessDoesNotAllocate(t *testing.T) {
	b := NewBank()
	const setStride = 256 * memtypes.LineBytes // same set, next tag
	addr := memtypes.Addr(0)
	access := func() {
		b.Access(addr, true, 0)
		addr += setStride
	}
	for i := 0; i < 16; i++ {
		access()
	}
	allocs := testing.AllocsPerRun(100, access)
	if allocs != 0 {
		t.Fatalf("evicting access allocates %.1f times, want 0", allocs)
	}
	if b.Stats().Misses != b.Stats().Accesses {
		t.Fatalf("misses %d of %d accesses: every access should miss", b.Stats().Misses, b.Stats().Accesses)
	}
}
