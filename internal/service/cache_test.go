package service

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCellKeyCanonicalization pins the content-address property the
// cache relies on: equivalent job specs (defaults elided vs. spelled
// out, style spelled with different case) normalize to identical cells
// and hash to identical keys.
func TestCellKeyCanonicalization(t *testing.T) {
	shorthand := JobRequest{Benchmark: "radiosity", Setup: "CB-One"}
	explicit := JobRequest{
		Benchmarks:  []string{"radiosity"},
		Setups:      []string{"CB-One"},
		Cores:       64,
		Style:       "SCALABLE",
		Entries:     4,
		LimitCycles: DefaultLimitCycles,
	}
	a, err := shorthand.Cells()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("cells = %d/%d, want 1/1", len(a), len(b))
	}
	if a[0] != b[0] {
		t.Fatalf("normalized cells differ:\n  %+v\n  %+v", a[0], b[0])
	}
	if ka, kb := a[0].Key(), b[0].Key(); ka != kb {
		t.Fatalf("equivalent specs hash differently: %s vs %s", ka, kb)
	}
}

// TestCellKeySaltAndFields pins that every spec field perturbs the key.
func TestCellKeySaltAndFields(t *testing.T) {
	base := CellSpec{Benchmark: "radiosity", Setup: "CB-One", Cores: 64,
		Style: "scalable", Entries: 4, Limit: DefaultLimitCycles}
	k := base.Key()
	variants := []CellSpec{}
	for _, mutate := range []func(*CellSpec){
		func(c *CellSpec) { c.Benchmark = "ocean" },
		func(c *CellSpec) { c.Setup = "Invalidation" },
		func(c *CellSpec) { c.Cores = 16 },
		func(c *CellSpec) { c.Style = "naive" },
		func(c *CellSpec) { c.Entries = 16 },
		func(c *CellSpec) { c.Limit = 1000 },
		func(c *CellSpec) { c.Cycles = true },
	} {
		c := base
		mutate(&c)
		variants = append(variants, c)
	}
	seen := map[string]CellSpec{k: base}
	for _, c := range variants {
		kc := c.Key()
		if prev, dup := seen[kc]; dup {
			t.Fatalf("specs %+v and %+v collide on %s", prev, c, kc)
		}
		seen[kc] = c
	}
}

func TestCellsValidation(t *testing.T) {
	cases := []JobRequest{
		{Benchmark: "no-such-benchmark"},
		{Benchmark: "radiosity", Setup: "no-such-setup"},
		{Benchmark: "radiosity", Cores: 7},  // not a perfect square
		{Benchmark: "radiosity", Cores: 81}, // > 64
		{Benchmark: "radiosity", Style: "aggressive"},
		{Benchmark: "radiosity", Entries: -1},
		{Benchmark: "fft", Setup: "CB-One", Cores: 64, Entries: 1 << 30}, // would allocate terabytes
	}
	for _, req := range cases {
		if _, err := req.Cells(); err == nil {
			t.Errorf("request %+v: expected validation error", req)
		}
	}
	// The empty request is the full suite sweep: 19 benchmarks x 7 setups.
	cells, err := JobRequest{}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 19*7 {
		t.Fatalf("empty request = %d cells, want %d", len(cells), 19*7)
	}
	// Duplicates collapse.
	cells, err = JobRequest{Benchmark: "ocean", Benchmarks: []string{"ocean"}, Setup: "CB-One"}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("duplicate benchmark yields %d cells, want 1", len(cells))
	}
}

func TestCacheLRUByteBound(t *testing.T) {
	// Keys are 2 bytes, payloads 8: each entry is 10 bytes. A 30-byte
	// cache holds exactly 3 entries.
	c := NewCache(30)
	pay := func(i int) []byte { return []byte(fmt.Sprintf("payload%d", i%10)) }
	key := func(i int) string { return fmt.Sprintf("k%d", i%10) }
	for i := 0; i < 4; i++ {
		c.Put(key(i), pay(i))
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	for i := 1; i < 4; i++ {
		got, ok := c.Get(key(i))
		if !ok || string(got) != string(pay(i)) {
			t.Fatalf("entry %d missing or wrong: %q", i, got)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("stats = %+v, want 3 entries / 30 bytes", st)
	}
	if st.Evictions != 1 || st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("counters = %+v, want 1 eviction, 1 miss, 3 hits", st)
	}

	// Recency: touching k1 makes k2 the eviction victim.
	c.Get(key(1))
	c.Put(key(5), pay(5))
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry survived")
	}

	// An oversized payload is not cached and evicts nothing.
	before := c.Stats()
	c.Put("huge", make([]byte, 64))
	after := c.Stats()
	if after.Entries != before.Entries || after.Evictions != before.Evictions {
		t.Fatalf("oversized put changed the cache: %+v -> %+v", before, after)
	}

	// Refreshing an existing key updates bytes, not entry count.
	c.Put(key(5), []byte("xy"))
	st = c.Stats()
	if got, _ := c.Get(key(5)); string(got) != "xy" {
		t.Fatalf("refresh lost: %q", got)
	}
	if st.Entries != 3 {
		t.Fatalf("refresh changed entry count: %+v", st)
	}
}

func TestCacheHitRate(t *testing.T) {
	c := NewCache(1 << 10)
	if r := c.Stats().HitRate(); r != 0 {
		t.Fatalf("empty cache hit rate = %v", r)
	}
	c.Put("a", []byte("x"))
	c.Get("a")
	c.Get("b")
	if r := c.Stats().HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", r)
	}
}

// TestCacheConcurrentEviction hammers the LRU from many goroutines with
// a working set larger than the byte bound, so Put/Get/evict interleave
// constantly. Run under -race in CI. Two invariants must hold at every
// observation point and at the end: the byte bound is never exceeded,
// and hits + misses exactly equals the number of Get calls (counter
// conservation — no lookup is lost or double-counted under contention).
func TestCacheConcurrentEviction(t *testing.T) {
	const (
		maxBytes   = 4 << 10
		goroutines = 8
		opsEach    = 2000
		keySpace   = 97 // ~97 keys x ~130 bytes >> maxBytes: constant eviction
	)
	c := NewCache(maxBytes)
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := uint64(g)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsEach; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				key := fmt.Sprintf("cell-%03d", rnd%keySpace)
				if rnd%3 == 0 {
					size := 64 + int(rnd>>32%128)
					c.Put(key, bytes.Repeat([]byte{byte(rnd)}, size))
				} else {
					gets.Add(1)
					if data, ok := c.Get(key); ok && len(data) == 0 {
						t.Error("cache returned an empty payload for a stored key")
					}
				}
				if st := c.Stats(); st.Bytes > st.MaxBytes {
					t.Errorf("byte bound violated mid-run: %d > %d", st.Bytes, st.MaxBytes)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes || st.Bytes < 0 {
		t.Fatalf("final bytes out of bounds: %+v", st)
	}
	if st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("test exercised nothing: %+v", st)
	}
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("counter conservation broken: hits %d + misses %d != gets %d",
			st.Hits, st.Misses, gets.Load())
	}
}
