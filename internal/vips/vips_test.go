package vips

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
)

// rig wires a small VIPS machine: width x height tiles, one L1 + bank per
// tile, a shared store.
type rig struct {
	k     *sim.Kernel
	mesh  *noc.Mesh
	store *mem.Store
	tiles []*Tile
}

func newRig(t testing.TB, nodes int, cfg Config) *rig {
	t.Helper()
	k := sim.New()
	w := 1
	for w*w < nodes {
		w++
	}
	if w*w != nodes {
		t.Fatalf("nodes %d is not a square", nodes)
	}
	mesh := noc.New(k, w, w)
	store := mem.NewStore()
	bankOf := func(a memtypes.Addr) memtypes.NodeID {
		return memtypes.NodeID(uint64(a.Line()) / memtypes.LineBytes % uint64(nodes))
	}
	r := &rig{k: k, mesh: mesh, store: store}
	for n := 0; n < nodes; n++ {
		id := memtypes.NodeID(n)
		tile := &Tile{
			L1:   NewL1(k, id, mesh, bankOf),
			Bank: NewBank(k, id, mesh, store, nodes, cfg),
		}
		mesh.Attach(id, tile)
		r.tiles = append(r.tiles, tile)
	}
	return r
}

// access issues a request from core n and returns the response once the
// simulation drains.
// completeFunc adapts a function to memtypes.Completer.
type completeFunc func(memtypes.Response)

func (f completeFunc) Complete(resp memtypes.Response) { f(resp) }

func (r *rig) access(t testing.TB, n int, req *memtypes.Request) memtypes.Response {
	t.Helper()
	var resp memtypes.Response
	got := false
	req.Core = memtypes.NodeID(n)
	r.tiles[n].L1.Access(req, completeFunc(func(rp memtypes.Response) { resp = rp; got = true }))
	if err := r.k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Fatal("request did not complete (blocked?)")
	}
	return resp
}

// start issues a request without draining; the callback fires whenever it
// completes.
func (r *rig) start(n int, req *memtypes.Request, done func(memtypes.Response)) {
	req.Core = memtypes.NodeID(n)
	r.tiles[n].L1.Access(req, completeFunc(done))
}

func TestDRFReadWriteHitMiss(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	// Store allocates and writes the L1 line; read hits locally.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x100, Value: 42})
	resp := r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	if resp.Value != 42 || !resp.Hit {
		t.Fatalf("read = %+v, want 42/hit", resp)
	}
	st := r.tiles[0].L1.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("L1 stats = %+v, want 1 miss, 1 hit", st)
	}
}

func TestWriteInvisibleUntilDowngrade(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	// Core 0 writes DRF data but does not fence: the store (and hence
	// other cores) must not see it.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x100, Value: 7})
	if got := r.store.Load(0x100); got != 0 {
		t.Fatalf("store value = %d before self-downgrade, want 0", got)
	}
	// After self_down the write is visible at the LLC.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfDown})
	if got := r.store.Load(0x100); got != 7 {
		t.Fatalf("store value = %d after self-downgrade, want 7", got)
	}
}

func TestSelfInvalidationRefetches(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	// Core 1 caches the line while it is 0.
	if resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200}); resp.Value != 0 {
		t.Fatal("initial read should be 0")
	}
	// Core 0 writes and downgrades.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x200, Value: 9})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfDown})
	// Without a fence core 1 still reads its stale copy: that is the
	// defining behaviour of self-invalidation protocols.
	if resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200}); resp.Value != 0 {
		t.Fatalf("unfenced read = %d, want stale 0", resp.Value)
	}
	// After self_invl the line is refetched and current.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpFenceSelfInvl})
	if resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200}); resp.Value != 9 {
		t.Fatalf("fenced read = %d, want 9", resp.Value)
	}
}

func TestSelfInvlFlushesDirtyFirst(t *testing.T) {
	// Footnote 7: self_invl also downgrades transient dirty data.
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x300, Value: 5})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfInvl})
	if got := r.store.Load(0x300); got != 5 {
		t.Fatalf("store value = %d after self_invl, want 5 (flush-then-invalidate)", got)
	}
	if r.tiles[0].L1.ValidLines() != 0 {
		t.Fatal("shared lines should be invalidated")
	}
}

func TestPrivateDataSurvivesFences(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x400, Value: 3, Private: true})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfInvl})
	if r.tiles[0].L1.ValidLines() != 1 {
		t.Fatal("private line should survive self-invalidation")
	}
	// And it keeps its dirty data locally (not written through).
	if got := r.store.Load(0x400); got != 0 {
		t.Fatalf("private data written through by fence: %d", got)
	}
	resp := r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x400, Private: true})
	if resp.Value != 3 {
		t.Fatalf("private read = %d, want 3", resp.Value)
	}
}

func TestRacyOpsBypassL1(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: 0x500, Value: 11})
	if got := r.store.Load(0x500); got != 11 {
		t.Fatalf("st_through not visible at LLC: %d", got)
	}
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadThrough, Addr: 0x500})
	if resp.Value != 11 {
		t.Fatalf("ld_through = %d, want 11", resp.Value)
	}
	if st := r.tiles[1].L1.Stats(); st.Accesses != 0 {
		t.Fatalf("racy ops touched the L1 array: %+v", st)
	}
}

func TestRMWAtomicity(t *testing.T) {
	// Two t&s on the same free lock: exactly one wins, regardless of
	// arrival interleaving at the bank.
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	wins := 0
	reqs := 0
	for _, c := range []int{1, 2} {
		c := c
		r.start(c, &memtypes.Request{
			Kind: memtypes.OpRMW, Addr: 0x600,
			RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
		}, func(resp memtypes.Response) {
			reqs++
			if resp.Value == 0 {
				wins++
			}
		})
	}
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if reqs != 2 || wins != 1 {
		t.Fatalf("reqs=%d wins=%d, want 2/1", reqs, wins)
	}
	if r.store.Load(0x600) != 1 {
		t.Fatal("lock not taken")
	}
}

func TestCallbackReadBlocksUntilWrite(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeCallback})
	// Drain the F/E bit: install via a first callback read (satisfied).
	if resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0x700}); resp.Stale {
		t.Fatal("install read should not be stale")
	}
	// Second ld_cb blocks.
	var got *memtypes.Response
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0x700}, func(resp memtypes.Response) {
		got = &resp
	})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("ld_cb completed without a write")
	}
	if r.tiles[memtypes.NodeID(0x700/64%4)].Bank.Parked() != 1 {
		t.Fatal("ld_cb not parked at the owning bank")
	}
	// A st_through wakes it with the new value.
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: 0x700, Value: 33})
	if got == nil {
		t.Fatal("ld_cb still blocked after write")
	}
	if got.Value != 33 || got.Stale {
		t.Fatalf("woken read = %+v, want value 33", got)
	}
}

func TestCallbackConsumesPrecedingWrite(t *testing.T) {
	// A write that precedes the callback is consumed immediately: the
	// F/E mechanism ("a callback can consume a single write, whether it
	// happens before or after it").
	r := newRig(t, 4, Config{Mode: ModeCallback})
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0x700}) // install+consume
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0x740}) // different word, own entry
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: 0x700, Value: 5})
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0x700})
	if resp.Value != 5 {
		t.Fatalf("callback after write = %d, want 5 without blocking", resp.Value)
	}
}

func TestWriteCB1WakesExactlyOne(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeCallback})
	addr := memtypes.Addr(0x800)
	// Install and drain all F/E bits for cores 1..3.
	for _, c := range []int{1, 2, 3} {
		r.access(t, c, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr})
	}
	done := map[int]uint64{}
	for _, c := range []int{1, 2, 3} {
		c := c
		r.start(c, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr}, func(resp memtypes.Response) {
			done[c] = resp.Value
		})
	}
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatal("callbacks completed without a write")
	}
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWriteCB1, Addr: addr, Value: 77})
	if len(done) != 1 {
		t.Fatalf("st_cb1 woke %d cores, want exactly 1", len(done))
	}
	// A second st_cb1 wakes the next one.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWriteCB1, Addr: addr, Value: 78})
	if len(done) != 2 {
		t.Fatalf("second st_cb1: %d woken, want 2", len(done))
	}
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWriteCB1, Addr: addr, Value: 79})
	if len(done) != 3 {
		t.Fatalf("third st_cb1: %d woken, want 3", len(done))
	}
}

func TestWriteCB0WakesNobody(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeCallback})
	addr := memtypes.Addr(0x900)
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr})
	woken := false
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr}, func(memtypes.Response) { woken = true })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteCB0, Addr: addr, Value: 1})
	if woken {
		t.Fatal("st_cb0 must not wake callbacks")
	}
	// The subsequent st_cb1 does.
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteCB1, Addr: addr, Value: 0})
	if !woken {
		t.Fatal("st_cb1 should wake the parked read")
	}
}

func TestBlockedRMWWokenByRelease(t *testing.T) {
	// The {ld_cb}&{st_cb0} T&S spin of Figure 9 (right): a blocked RMW
	// is woken by the lock release and acquires atomically.
	r := newRig(t, 4, Config{Mode: ModeCallback})
	lock := memtypes.Addr(0xA00)

	// Core 1 takes the lock with {ld}&{st_cb0}.
	resp := r.access(t, 1, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
		RMWSt: memtypes.CBZero,
	})
	if resp.Value != 0 {
		t.Fatal("first acquire should win")
	}

	// Core 2 spins with {ld_cb}&{st_cb0}. The first iteration installs
	// a fresh all-full entry, consumes it, and fails (reads 1); the
	// retry then blocks in the directory — the paper's spin-loop shape.
	first := r.access(t, 2, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
		RMWLdCB: true, RMWSt: memtypes.CBZero,
	})
	if first.Value != 1 {
		t.Fatalf("first spin iteration read %d, want 1 (lock taken)", first.Value)
	}
	var acq *memtypes.Response
	r.start(2, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
		RMWLdCB: true, RMWSt: memtypes.CBZero,
	}, func(rp memtypes.Response) { acq = &rp })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if acq != nil {
		t.Fatal("RMW retry should be held in the callback directory")
	}

	// Core 1 releases with st_cb1: core 2's RMW wakes and wins.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpWriteCB1, Addr: lock, Value: 0})
	if acq == nil {
		t.Fatal("blocked RMW not woken by release")
	}
	if acq.Value != 0 {
		t.Fatalf("woken RMW read %d, want 0 (free lock)", acq.Value)
	}
	if r.store.Load(lock) != 1 {
		t.Fatal("lock should be re-taken by core 2")
	}
}

func TestDirectoryEvictionAnswersStale(t *testing.T) {
	cfg := Config{Mode: ModeCallback}
	cfg.CBEntriesPerBank = 1
	r := newRig(t, 4, cfg)
	// 0x40 and 0x140 both map to bank 1 (line index mod 4 == 1).
	a := memtypes.Addr(0x40)
	bAddr := memtypes.Addr(0x140)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: a})
	var resp *memtypes.Response
	r.start(0, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: a}, func(rp memtypes.Response) { resp = &rp })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatal("should be parked")
	}
	// Another core installing a second entry evicts the first (1-entry
	// directory); its waiter must be answered with the current value,
	// marked stale.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: bAddr})
	if resp == nil {
		t.Fatal("evicted waiter not answered")
	}
	if !resp.Stale {
		t.Fatal("eviction answer should be marked stale")
	}
}

func TestWTLineWakesCallbacks(t *testing.T) {
	// An ordinary DRF write-through (self-downgrade) to a word with a
	// callback entry behaves as a normal write: wakes everyone.
	r := newRig(t, 4, Config{Mode: ModeCallback})
	addr := memtypes.Addr(0xB00)
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr})
	var got *memtypes.Response
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr}, func(rp memtypes.Response) { got = &rp })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Core 2 writes the word as DRF data and self-downgrades.
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWrite, Addr: addr, Value: 21})
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpFenceSelfDown})
	if got == nil {
		t.Fatal("write-through did not wake the callback")
	}
	if got.Value != 21 {
		t.Fatalf("woken value = %d, want 21", got.Value)
	}
}

func TestBankLineLockSerializes(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	// Two RMW fetch&adds issued the same cycle must both apply.
	results := []uint64{}
	for _, c := range []int{1, 2} {
		r.start(c, &memtypes.Request{
			Kind: memtypes.OpRMW, Addr: 0xC00,
			RMW: memtypes.RMWFetchAdd, Arg: 1,
		}, func(rp memtypes.Response) { results = append(results, rp.Value) })
	}
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.store.Load(0xC00) != 2 {
		t.Fatalf("counter = %d, want 2", r.store.Load(0xC00))
	}
	// Old values must be 0 and 1 in some order -> serialized.
	if len(results) != 2 || results[0]+results[1] != 1 {
		t.Fatalf("results = %v, want {0,1}", results)
	}
	if r.tiles[memtypes.NodeID(0xC00/64%4)].Bank.Stats().Deferred == 0 {
		t.Fatal("expected the second RMW to defer behind the line lock")
	}
}

func TestLdCBInBackoffModeDegenerates(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeBackoff})
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: 0xD00})
	if resp.Value != 0 {
		t.Fatal("ld_cb in backoff mode should behave as ld_through")
	}
	if r.tiles[memtypes.NodeID(0xD00/64%4)].Bank.Parked() != 0 {
		t.Fatal("nothing should park in backoff mode")
	}
}

func TestEvictionWriteThrough(t *testing.T) {
	r := newRig(t, 1, Config{Mode: ModeBackoff})
	// Fill one set (4 ways) plus one more line: set index repeats every
	// 128 lines (32KB/4-way = 128 sets), so stride 128*64 bytes.
	stride := uint64(128 * 64)
	for i := uint64(0); i < 5; i++ {
		r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: memtypes.Addr(i * stride), Value: i + 1})
	}
	// The LRU line (i=0) was evicted and written through.
	if got := r.store.Load(0); got != 1 {
		t.Fatalf("evicted dirty line not written through: %d", got)
	}
	if got := r.store.Load(memtypes.Addr(4 * stride)); got != 0 {
		t.Fatal("resident dirty line leaked to store")
	}
}

func TestCallbackStats(t *testing.T) {
	r := newRig(t, 4, Config{Mode: ModeCallback})
	addr := memtypes.Addr(0xE00)
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr})
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: addr}, func(memtypes.Response) {})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: addr, Value: 1})
	bank := r.tiles[memtypes.NodeID(0xE00/64%4)].Bank
	if bank.Stats().Wakes != 1 {
		t.Fatalf("bank wakes = %d, want 1", bank.Stats().Wakes)
	}
	if bank.CBDir() == nil {
		t.Fatal("callback mode should expose a directory")
	}
	if bank.CBDir().Stats().Blocked != 1 {
		t.Fatalf("dir blocked = %d, want 1", bank.CBDir().Stats().Blocked)
	}
	_ = core.DefaultEntries
}

func TestQueueLockBlocksFailingTAS(t *testing.T) {
	cfg := Config{Mode: ModeQueueLock}
	r := newRig(t, 4, cfg)
	lock := memtypes.Addr(0x40) // bank 1

	// Core 1 takes the lock.
	if resp := r.access(t, 1, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
	}); resp.Value != 0 {
		t.Fatal("first acquire should win")
	}

	// Core 2's failing t&s is queued at the controller, not answered.
	var acq *memtypes.Response
	r.start(2, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
	}, func(rp memtypes.Response) { acq = &rp })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if acq != nil {
		t.Fatal("failing t&s should be queued by the blocking bit")
	}
	bank := r.tiles[1].Bank
	if bank.QueueDepth(lock) != 1 {
		t.Fatalf("queue depth = %d, want 1", bank.QueueDepth(lock))
	}

	// The release write replays the queued RMW, which now wins.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: lock, Value: 0})
	if acq == nil {
		t.Fatal("queued RMW not replayed by the release")
	}
	if acq.Value != 0 {
		t.Fatalf("replayed t&s read %d, want 0", acq.Value)
	}
	if r.store.Load(lock) != 1 {
		t.Fatal("lock should be re-taken by core 2")
	}
	if bank.Stats().QueuedRMWs != 1 || bank.Stats().QueueWakes != 1 {
		t.Fatalf("queue stats = %+v", bank.Stats())
	}
}

func TestQueueLockFIFOOrder(t *testing.T) {
	cfg := Config{Mode: ModeQueueLock}
	r := newRig(t, 4, cfg)
	lock := memtypes.Addr(0x40)
	r.access(t, 1, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: lock,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
	})
	var order []int
	for _, c := range []int{2, 3} {
		c := c
		r.start(c, &memtypes.Request{
			Kind: memtypes.OpRMW, Addr: lock,
			RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: uint64(c),
		}, func(rp memtypes.Response) {
			if rp.Value == 0 {
				order = append(order, c)
			}
		})
		if err := r.k.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	// Two releases hand the lock off in arrival order.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: lock, Value: 0})
	// Core 2 won and holds the lock (value 2); its "release":
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: lock, Value: 0})
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("grant order = %v, want FIFO [2 3]", order)
	}
}

func TestQueueLockUnconditionalAtomicsPass(t *testing.T) {
	// Swap and fetch&add never queue; a fetch&add release also wakes
	// queued waiters (signal semantics).
	cfg := Config{Mode: ModeQueueLock}
	r := newRig(t, 4, cfg)
	c := memtypes.Addr(0x40)
	if resp := r.access(t, 1, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: c, RMW: memtypes.RMWFetchAdd, Arg: 1,
	}); resp.Value != 0 {
		t.Fatal("f&a should complete immediately")
	}
	// A t&d on the now-zero... make counter 0 first via swap.
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRMW, Addr: c, RMW: memtypes.RMWSwap, Arg: 0})
	var woken bool
	r.start(2, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: c, RMW: memtypes.RMWTestAndDec,
	}, func(rp memtypes.Response) { woken = true })
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Fatal("t&d on zero should queue")
	}
	// Signal: f&a wakes the queued waiter.
	r.access(t, 3, &memtypes.Request{Kind: memtypes.OpRMW, Addr: c, RMW: memtypes.RMWFetchAdd, Arg: 1})
	if !woken {
		t.Fatal("f&a release should replay the queued t&d")
	}
}

// A racy response that answers an earlier operation must be rejected,
// not complete the operation in flight. The core reuses one Request for
// every operation, so the L1 tells responses apart by the serial the bank
// echoes; the case with a fresh Request per operation pins the check for
// callers that do not reuse.
func TestDuplicatedRacyResponsePanics(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		r := newRig(t, 4, Config{Mode: ModeCallback})
		const addr = memtypes.Addr(0x300)
		first := &memtypes.Request{Kind: memtypes.OpReadThrough, Addr: addr, Serial: 1}
		r.access(t, 0, first)

		// A second copy of the first operation's response, as a faulty
		// bank would send it.
		dup := r.mesh.NewMessage()
		*dup = memtypes.Message{
			Src: 0, Dst: 0, Kind: MsgRacyResp, Class: memtypes.ClassWordData,
			Addr: addr, Core: 0, Req: first, Serial: first.Serial,
		}

		second := first
		if !reuse {
			second = &memtypes.Request{}
		}
		*second = memtypes.Request{Kind: memtypes.OpReadThrough, Addr: addr, Serial: 2}
		r.start(0, second, func(memtypes.Response) {})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("reuse=%v: a duplicated racy response completed the next operation", reuse)
				}
			}()
			r.tiles[0].L1.Deliver(dup)
		}()
	}
}
