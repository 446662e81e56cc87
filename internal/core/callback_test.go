package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/memtypes"
)

const addrA = memtypes.Addr(0x1000)
const addrB = memtypes.Addr(0x2000)

// The directory keeps each set of per-core bits as a uint64; the helpers
// below spread them into the per-core lists the paper's figures are
// written in, so every assertion compares the same literals.

// entryState is EntryState with the F/E and CB vectors as one bool per
// core.
func entryState(d *Directory, addr memtypes.Addr) (fe, cb []bool, one, ok bool) {
	fev, cbv, one, ok := d.EntryState(addr)
	if !ok {
		return nil, nil, false, false
	}
	return bools(fev, d.cores), bools(cbv, d.cores), one, true
}

// write is Write with the woken cores as a list, lowest first; nil when
// nobody wakes.
func write(d *Directory, addr memtypes.Addr, mode memtypes.CBWrite) []int {
	return coreList(d.Write(addr, mode))
}

func bools(v uint64, cores int) []bool {
	bs := make([]bool, cores)
	for c := range bs {
		bs[c] = v>>c&1 != 0
	}
	return bs
}

// coreList lists the cores whose bits v sets, lowest first; nil when none.
func coreList(v uint64) []int {
	var cs []int
	for c := 0; c < 64; c++ {
		if v>>c&1 != 0 {
			cs = append(cs, c)
		}
	}
	return cs
}

// TestFigure3Steps walks the callback-all example of Figure 3 step by
// step with four cores.
func TestFigure3Steps(t *testing.T) {
	d := New(4, 4)

	// Step 1: the entry is allocated with all F/E bits full; every core
	// then reads the variable, consuming its own F/E bit.
	for c := 0; c < 4; c++ {
		res, ev := d.CallbackRead(c, addrA)
		if res != ReadSatisfied || ev != (Eviction{}) {
			t.Fatalf("step 1 core %d: res=%v ev=%v, want satisfied/no eviction", c, res, ev)
		}
	}
	fe, cb, one, ok := entryState(d, addrA)
	if !ok || one {
		t.Fatal("step 1: entry missing or in One mode")
	}
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 1: fe=%v, want all empty", fe)
	}
	if !reflect.DeepEqual(cb, []bool{false, false, false, false}) {
		t.Fatalf("step 1: cb=%v, want none", cb)
	}

	// Step 2: cores 0 and 2 issue callback reads; they block.
	for _, c := range []int{0, 2} {
		res, _ := d.CallbackRead(c, addrA)
		if res != ReadBlocked {
			t.Fatalf("step 2 core %d: want blocked", c)
		}
	}
	_, cb, _, _ = entryState(d, addrA)
	if !reflect.DeepEqual(cb, []bool{true, false, true, false}) {
		t.Fatalf("step 2: cb=%v, want callbacks on 0 and 2", cb)
	}

	// Step 3: core 3 writes; both callbacks are serviced, and the F/E
	// bits of the cores that did NOT have a callback (1 and 3) are set
	// to full.
	wake := write(d, addrA, memtypes.CBAll)
	if !reflect.DeepEqual(wake, []int{0, 2}) {
		t.Fatalf("step 3: wake=%v, want [0 2]", wake)
	}
	fe, cb, _, _ = entryState(d, addrA)
	if !reflect.DeepEqual(fe, []bool{false, true, false, true}) {
		t.Fatalf("step 3: fe=%v, want full for 1 and 3 only", fe)
	}
	if !reflect.DeepEqual(cb, []bool{false, false, false, false}) {
		t.Fatalf("step 3: cb=%v, want cleared", cb)
	}

	// Step 4: a core with a full F/E bit issues a callback and consumes
	// the value immediately, leaving both bits unset.
	res, _ := d.CallbackRead(1, addrA)
	if res != ReadSatisfied {
		t.Fatal("step 4: core 1 should consume immediately")
	}
	fe, _, _, _ = entryState(d, addrA)
	if fe[1] {
		t.Fatal("step 4: core 1 F/E bit should be empty after consuming")
	}

	// Step 5: cores 0 and 2 block again; a replacement answers both
	// callbacks with the current value.
	d.CallbackRead(0, addrA)
	d.CallbackRead(2, addrA)
	small := New(1, 4)
	small.CallbackRead(0, addrA)
	small.CallbackRead(0, addrA) // blocks: CB[0] set
	_, ev := small.CallbackRead(1, addrB)
	if ev.Addr != addrA.Word() || !reflect.DeepEqual(coreList(ev.Waiters), []int{0}) {
		t.Fatalf("step 5: eviction = %+v, want waiter 0 on %s", ev, addrA)
	}

	// Step 6: the new entry starts with all F/E bits full and no
	// callbacks, so the installing read was satisfied.
	fe, cb, one, ok = entryState(small, addrB)
	if !ok || one {
		t.Fatal("step 6: fresh entry missing or in One mode")
	}
	if !reflect.DeepEqual(fe, []bool{true, false, true, true}) {
		// Core 1 installed and consumed its own bit.
		t.Fatalf("step 6: fe=%v, want all full except installer", fe)
	}
	if small.Stats().StaleWakes != 1 {
		t.Fatalf("step 6: StaleWakes=%d, want 1", small.Stats().StaleWakes)
	}
}

// TestFigure4LockHandoff reproduces the callback-one example of Figure 4:
// acquires arrive in order 2,0,1,3 but the lock is granted 2,3,0,1 under
// the pseudo-random round-robin policy starting at core 3.
func TestFigure4LockHandoff(t *testing.T) {
	d := New(4, 4)

	// Establish the step-1 state: entry in One mode with all F/E full
	// (a previous lock cycle: install + st_cb1 release with no waiters).
	if res, _ := d.CallbackRead(2, addrA); res != ReadSatisfied {
		t.Fatal("setup: install should satisfy")
	}
	write(d, addrA, memtypes.CBOne) // no waiters: One mode, all full
	fe, _, one, _ := entryState(d, addrA)
	if !one || !reflect.DeepEqual(fe, []bool{true, true, true, true}) {
		t.Fatalf("step 1: fe=%v one=%v, want all full in One mode", fe, one)
	}

	// Step 2: core 2 reads the lock; ALL F/E bits go empty in unison.
	if res, _ := d.CallbackRead(2, addrA); res != ReadSatisfied {
		t.Fatal("step 2: core 2 should get the lock value")
	}
	fe, _, _, _ = entryState(d, addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 2: fe=%v, want all empty in unison", fe)
	}

	// Steps 3-5: cores 0, 1, 3 must set callbacks and wait.
	for _, c := range []int{0, 1, 3} {
		if res, _ := d.CallbackRead(c, addrA); res != ReadBlocked {
			t.Fatalf("steps 3-5: core %d should block", c)
		}
	}

	// The example's pseudo-random pick starts at core 3.
	d.SetWakePointer(addrA, 3)

	// Step 6: core 2 releases with write_CB1: exactly one wake (core 3),
	// F/E bits left undisturbed (empty).
	wake := write(d, addrA, memtypes.CBOne)
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("step 6: wake=%v, want [3]", wake)
	}
	fe, _, _, _ = entryState(d, addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("step 6: fe=%v, want undisturbed (all empty)", fe)
	}

	// Core 3 releases: round-robin proceeds to core 0, then core 1 —
	// grant order 2,3,0,1 overall.
	if wake := write(d, addrA, memtypes.CBOne); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("second release: wake=%v, want [0]", wake)
	}
	if wake := write(d, addrA, memtypes.CBOne); !reflect.DeepEqual(wake, []int{1}) {
		t.Fatalf("third release: wake=%v, want [1]", wake)
	}
	// Final release with no waiters returns the entry to all-full.
	if wake := write(d, addrA, memtypes.CBOne); wake != nil {
		t.Fatalf("final release: wake=%v, want none", wake)
	}
	fe, _, _, _ = entryState(d, addrA)
	if !reflect.DeepEqual(fe, []bool{true, true, true, true}) {
		t.Fatalf("final release: fe=%v, want all full", fe)
	}
}

// TestFigure5PrematureWake shows the write_CB1 inefficiency in RMWs: the
// successful acquire's write wakes core 3 even though its RMW is doomed.
func TestFigure5PrematureWake(t *testing.T) {
	d := New(4, 4)

	// Entry in One mode, all full (as in Figure 5 step 1).
	d.CallbackRead(2, addrA)
	write(d, addrA, memtypes.CBOne)

	// Core 2's RMW: the read consumes the value (all F/E empty).
	d.ReadThrough(2, addrA)
	fe, _, _, _ := entryState(d, addrA)
	if !reflect.DeepEqual(fe, []bool{false, false, false, false}) {
		t.Fatalf("RMW read: fe=%v, want all empty", fe)
	}

	// Steps 2-3: cores 3 and 0 must set callbacks.
	d.CallbackRead(3, addrA)
	d.CallbackRead(0, addrA)

	// Step 4: core 2's RMW write is a write_CB1 -> premature wake of
	// core 3 (the pseudo-random pointer is at 3 in the example).
	d.SetWakePointer(addrA, 3)
	wake := write(d, addrA, memtypes.CBOne)
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("RMW write: wake=%v, want premature [3]", wake)
	}

	// Step 5: core 3's retry fails (lock taken) and it blocks again.
	if res, _ := d.CallbackRead(3, addrA); res != ReadBlocked {
		t.Fatal("core 3 retry should block")
	}

	// Steps 5-6: core 2's release wakes core 0 (round-robin moved on).
	wake = write(d, addrA, memtypes.CBOne)
	if !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("release: wake=%v, want [0]", wake)
	}

	// Steps 7-8: core 0's RMW write prematurely wakes core 1... which in
	// the figure had also blocked. Here core 3 is the only waiter left,
	// so it is woken prematurely again, losing its turn.
	wake = write(d, addrA, memtypes.CBOne)
	if !reflect.DeepEqual(wake, []int{3}) {
		t.Fatalf("second RMW write: wake=%v, want [3]", wake)
	}
}

// TestFigure6WriteCB0 shows write_CB0 avoiding the premature wake: the
// RMW write services nobody, so only releases hand the lock off.
func TestFigure6WriteCB0(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(2, addrA)
	write(d, addrA, memtypes.CBOne) // One mode, all full

	// Core 2 acquires: read consumes; write is st_cb0 (no wakes).
	d.ReadThrough(2, addrA)
	if wake := write(d, addrA, memtypes.CBZero); wake != nil {
		t.Fatalf("st_cb0 woke %v, want nobody", wake)
	}

	// Cores 3 and 0 block.
	d.CallbackRead(3, addrA)
	d.CallbackRead(0, addrA)
	d.SetWakePointer(addrA, 3)

	// Release wakes exactly one (core 3), whose RMW succeeds; its own
	// st_cb0 wakes nobody.
	if wake := write(d, addrA, memtypes.CBOne); !reflect.DeepEqual(wake, []int{3}) {
		t.Fatal("release should wake core 3")
	}
	d.ReadThrough(3, addrA) // woken RMW's read half re-executes at the LLC
	if wake := write(d, addrA, memtypes.CBZero); wake != nil {
		t.Fatalf("woken RMW's st_cb0 woke %v, want nobody", wake)
	}
	// Core 0 still waits, untouched.
	_, cb, _, _ := entryState(d, addrA)
	if !reflect.DeepEqual(cb, []bool{true, false, false, false}) {
		t.Fatalf("cb=%v, want only core 0 waiting", cb)
	}
	// Next release hands off to core 0.
	if wake := write(d, addrA, memtypes.CBOne); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatal("second release should wake core 0")
	}
}

func TestReadThroughNeverInstalls(t *testing.T) {
	d := New(4, 4)
	d.ReadThrough(0, addrA)
	if d.HasEntry(addrA) {
		t.Fatal("ld_through must not install entries")
	}
	if d.Stats().Installs != 0 {
		t.Fatal("install counted")
	}
}

func TestWriteNeverInstalls(t *testing.T) {
	d := New(4, 4)
	if wake := write(d, addrA, memtypes.CBAll); wake != nil {
		t.Fatal("write on missing entry woke someone")
	}
	if d.HasEntry(addrA) {
		t.Fatal("write must not install entries")
	}
}

func TestReadThroughConsumes(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA) // install, consume own bit
	// Core 1's F/E is full; a ld_through consumes it.
	d.ReadThrough(1, addrA)
	fe, _, _, _ := entryState(d, addrA)
	if fe[1] {
		t.Fatal("ld_through should consume core 1's full bit")
	}
	// A second ld_through is a no-op (but would still return data).
	d.ReadThrough(1, addrA)
	if d.Stats().ThroughHits != 1 {
		t.Fatalf("ThroughHits=%d, want 1", d.Stats().ThroughHits)
	}
}

func TestWordGranularity(t *testing.T) {
	d := New(4, 4)
	// Two words in the same cache line get independent entries.
	w0 := memtypes.Addr(0x1000)
	w1 := memtypes.Addr(0x1008)
	d.CallbackRead(0, w0)
	d.CallbackRead(0, w0) // blocks on w0
	if res, _ := d.CallbackRead(0, w1); res != ReadSatisfied {
		t.Fatal("same-line different-word read should have its own entry")
	}
	if wake := write(d, w1, memtypes.CBAll); len(wake) != 0 {
		t.Fatal("write to w1 must not wake w0's waiter")
	}
	if wake := write(d, w0, memtypes.CBAll); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatal("write to w0 should wake its waiter")
	}
}

func TestEvictionPrefersEntriesWithoutWaiters(t *testing.T) {
	d := New(2, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // waiter on A
	d.CallbackRead(1, addrB) // B has no waiters, and is MRU
	// A third address must evict B (no waiters) even though A is LRU.
	_, ev := d.CallbackRead(2, 0x3000)
	if ev.Addr != addrB.Word() {
		t.Fatalf("eviction=%+v, want B (no waiters)", ev)
	}
	if !d.HasEntry(addrA) {
		t.Fatal("A should survive")
	}
}

func TestEvictionAnswersAllWaiters(t *testing.T) {
	d := New(1, 4)
	for c := 0; c < 4; c++ {
		d.CallbackRead(c, addrA) // drain every F/E bit
	}
	d.CallbackRead(0, addrA) // now these block
	d.CallbackRead(1, addrA)
	d.CallbackRead(3, addrA)
	_, ev := d.CallbackRead(2, addrB)
	if !reflect.DeepEqual(coreList(ev.Waiters), []int{0, 1, 3}) {
		t.Fatalf("eviction=%+v, want waiters [0 1 3]", ev)
	}
	if d.Stats().StaleWakes != 3 {
		t.Fatalf("StaleWakes=%d, want 3", d.Stats().StaleWakes)
	}
}

func TestCBOneNoWaitersMakesFull(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	write(d, addrA, memtypes.CBOne)
	fe, _, one, _ := entryState(d, addrA)
	if !one {
		t.Fatal("st_cb1 should set One mode")
	}
	for _, f := range fe {
		if !f {
			t.Fatal("st_cb1 with no waiters should set all F/E full")
		}
	}
	// Exactly one subsequent read consumes; the next blocks.
	if res, _ := d.CallbackRead(1, addrA); res != ReadSatisfied {
		t.Fatal("first read should consume")
	}
	if res, _ := d.CallbackRead(2, addrA); res != ReadBlocked {
		t.Fatal("second read should block (value already consumed)")
	}
}

func TestNormalWriteResetsOneMode(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	write(d, addrA, memtypes.CBOne)
	_, _, one, _ := entryState(d, addrA)
	if !one {
		t.Fatal("setup failed")
	}
	// "(Any normal write or read resets the A/O bit to All.)"
	write(d, addrA, memtypes.CBAll)
	_, _, one, _ = entryState(d, addrA)
	if one {
		t.Fatal("st_through should reset the entry to All mode")
	}
}

func TestLowestIDPolicy(t *testing.T) {
	d := New(4, 4)
	d.SetWakePolicy(WakeLowestID)
	d.CallbackRead(3, addrA)
	write(d, addrA, memtypes.CBOne) // One mode, full
	d.CallbackRead(3, addrA)        // consumes
	d.CallbackRead(2, addrA)        // blocks
	d.CallbackRead(1, addrA)        // blocks
	if wake := write(d, addrA, memtypes.CBOne); !reflect.DeepEqual(wake, []int{1}) {
		t.Fatalf("wake=%v, want lowest ID [1]", wake)
	}
}

func TestDoubleCallbackPanics(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // blocks
	defer func() {
		if recover() == nil {
			t.Fatal("second pending callback from same core did not panic")
		}
	}()
	d.CallbackRead(0, addrA)
}

// A directory keeps one bit per core in a uint64, so it refuses a 65th
// core.
func TestNewRejectsMoreThan64Cores(t *testing.T) {
	New(4, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 65 cores")
		}
	}()
	New(4, 65)
}

func TestCancelCallback(t *testing.T) {
	d := New(4, 4)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // blocks
	if !d.CancelCallback(0, addrA) {
		t.Fatal("cancel should find the pending callback")
	}
	if d.CancelCallback(0, addrA) {
		t.Fatal("second cancel should find nothing")
	}
	// After cancel the write wakes nobody.
	if wake := write(d, addrA, memtypes.CBAll); len(wake) != 0 {
		t.Fatal("cancelled callback was woken")
	}
}

// Property: a write in All mode wakes exactly the set of blocked cores,
// and afterwards no callback bits remain; every core's read immediately
// after a CBAll write is satisfied exactly once.
func TestPropertyCBAllWakeSet(t *testing.T) {
	f := func(blockedMask uint8) bool {
		d := New(4, 8)
		// Install and drain all F/E bits.
		for c := 0; c < 8; c++ {
			d.CallbackRead(c, addrA)
		}
		var want []int
		for c := 0; c < 8; c++ {
			if blockedMask&(1<<c) != 0 {
				d.CallbackRead(c, addrA)
				want = append(want, c)
			}
		}
		wake := write(d, addrA, memtypes.CBAll)
		if !reflect.DeepEqual(wake, want) {
			return false
		}
		_, cb, _, _ := entryState(d, addrA)
		for _, c := range cb {
			if c {
				return false
			}
		}
		// Non-woken cores consume exactly once.
		for c := 0; c < 8; c++ {
			if blockedMask&(1<<c) != 0 {
				continue
			}
			if res, _ := d.CallbackRead(c, addrA); res != ReadSatisfied {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of CB-one operations, a write_CB1
// wakes at most one core and every woken core had a pending callback.
func TestPropertyCBOneSingleWake(t *testing.T) {
	f := func(ops []uint8) bool {
		d := New(4, 4)
		pending := [4]bool{}
		for _, op := range ops {
			c := int(op % 4)
			switch (op / 4) % 3 {
			case 0:
				if pending[c] {
					continue // core is blocked; cannot issue
				}
				res, ev := d.CallbackRead(c, addrA)
				if ev != (Eviction{}) {
					return false // single address: no evictions possible
				}
				if res == ReadBlocked {
					pending[c] = true
				}
			case 1:
				wake := write(d, addrA, memtypes.CBOne)
				if len(wake) > 1 {
					return false
				}
				for _, w := range wake {
					if !pending[w] {
						return false
					}
					pending[w] = false
				}
			case 2:
				write(d, addrA, memtypes.CBZero)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the directory never loses a waiter silently — every blocked
// read is eventually answered by a write, an eviction, or remains
// recorded in CB bits.
func TestPropertyNoLostWaiters(t *testing.T) {
	f := func(ops []uint16) bool {
		d := New(2, 4)
		type waiter struct {
			core int
			addr memtypes.Addr
		}
		blocked := map[waiter]bool{}
		addrs := []memtypes.Addr{0x100, 0x200, 0x300}
		for _, op := range ops {
			c := int(op % 4)
			a := addrs[int(op/4)%3]
			switch (op / 16) % 3 {
			case 0:
				if blocked[waiter{c, a}] {
					continue
				}
				res, ev := d.CallbackRead(c, a)
				for _, w := range coreList(ev.Waiters) {
					delete(blocked, waiter{w, ev.Addr})
				}
				if res == ReadBlocked {
					blocked[waiter{c, a}] = true
				}
			case 1:
				for _, w := range write(d, a, memtypes.CBAll) {
					if !blocked[waiter{w, a}] {
						return false
					}
					delete(blocked, waiter{w, a})
				}
			case 2:
				for _, w := range write(d, a, memtypes.CBOne) {
					if !blocked[waiter{w, a}] {
						return false
					}
					delete(blocked, waiter{w, a})
				}
			}
		}
		// Every still-blocked core must be recorded in some entry's CB
		// bits.
		for w := range blocked {
			_, cb, _, ok := entryState(d, w.addr)
			if !ok || !cb[w.core] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestLineGranularTags(t *testing.T) {
	d := New(4, 4)
	d.SetLineGranular(true)
	w0 := memtypes.Addr(0x1000)
	w1 := memtypes.Addr(0x1008) // same line, different word
	if d.Tag(w0) != d.Tag(w1) {
		t.Fatal("line-granular tags should merge same-line words")
	}
	d.CallbackRead(0, w0) // install, consume core 0's bit
	// Same-line different-word read now shares the entry: core 0 blocks.
	if res, _ := d.CallbackRead(0, w1); res != ReadBlocked {
		t.Fatal("line-granular entry should have been consumed by w0's read")
	}
	// A write to the other word wakes it (false sharing of entries).
	if wake := write(d, w0, memtypes.CBAll); !reflect.DeepEqual(wake, []int{0}) {
		t.Fatalf("wake=%v, want [0]", wake)
	}
	if d.Stats().Installs != 1 {
		t.Fatalf("installs=%d, want 1 shared entry", d.Stats().Installs)
	}
}

func TestEvictLRUPolicy(t *testing.T) {
	d := New(2, 4)
	d.SetEvictPolicy(EvictLRU)
	d.CallbackRead(0, addrA)
	d.CallbackRead(0, addrA) // waiter on A (A is LRU)
	d.CallbackRead(1, addrB) // B newer, no waiters
	// Plain LRU evicts A despite its waiter.
	_, ev := d.CallbackRead(2, 0x3000)
	if ev.Addr != addrA.Word() {
		t.Fatalf("eviction=%+v, want A under plain LRU", ev)
	}
	if !reflect.DeepEqual(coreList(ev.Waiters), []int{0}) {
		t.Fatalf("waiters=%v, want [0]", coreList(ev.Waiters))
	}
}
