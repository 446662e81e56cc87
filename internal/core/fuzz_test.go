package core

import (
	"fmt"
	"testing"

	"repro/internal/memtypes"
)

// refEntry mirrors one directory entry's architectural state: F/E and CB
// bits per core, the A/O mode bit, and the round-robin wake pointer.
type refEntry struct {
	fe   []bool
	cb   []bool
	one  bool
	wake int
}

// refDirectory is an unbounded-capacity reference model of the callback
// directory's per-address semantics (Sections 2.3-2.5). It keeps one bool
// per core where the directory keeps bit vectors, so the two share no
// representation. It never picks eviction victims itself: the real
// directory's returned Eviction is the oracle — the model checks the
// victim was live with exactly the claimed waiters and then drops it.
// Everything else (satisfy vs. block, F/E unison in One mode, wake
// selection and pointer rotation) is mirrored independently, so any
// divergence is a bug in one of the two.
type refDirectory struct {
	entries map[memtypes.Addr]*refEntry
	cores   int
	policy  WakePolicy
}

func newRef(cores int, policy WakePolicy) *refDirectory {
	return &refDirectory{entries: make(map[memtypes.Addr]*refEntry), cores: cores, policy: policy}
}

// applyEviction validates an eviction reported by the real directory
// against the model and removes the entry.
func (r *refDirectory) applyEviction(t *testing.T, ev Eviction) {
	t.Helper()
	e := r.entries[ev.Addr]
	if e == nil {
		t.Fatalf("directory evicted %#x which the model never installed", uint64(ev.Addr))
	}
	if want := vector(e.cb); ev.Waiters != want {
		t.Fatalf("eviction of %#x reported waiters %v, model has %v", uint64(ev.Addr), coreList(ev.Waiters), waiterSet(e.cb))
	}
	delete(r.entries, ev.Addr)
}

func waiterSet(cb []bool) []int {
	var w []int
	for i, c := range cb {
		if c {
			w = append(w, i)
		}
	}
	return w
}

func (r *refDirectory) read(core int, addr memtypes.Addr) ReadResult {
	e := r.entries[addr]
	if e == nil {
		e = &refEntry{fe: make([]bool, r.cores), cb: make([]bool, r.cores)}
		for i := range e.fe {
			e.fe[i] = true
		}
		r.entries[addr] = e
	}
	if e.one {
		if allTrue(e.fe) {
			setAll(e.fe, false)
			return ReadSatisfied
		}
	} else if e.fe[core] {
		e.fe[core] = false
		return ReadSatisfied
	}
	e.cb[core] = true
	return ReadBlocked
}

func (r *refDirectory) readThrough(core int, addr memtypes.Addr) {
	e := r.entries[addr]
	if e == nil {
		return
	}
	if e.one {
		if allTrue(e.fe) {
			setAll(e.fe, false)
		}
	} else if e.fe[core] {
		e.fe[core] = false
	}
}

func (r *refDirectory) write(addr memtypes.Addr, mode memtypes.CBWrite) []int {
	e := r.entries[addr]
	if e == nil {
		return nil
	}
	switch mode {
	case memtypes.CBAll:
		e.one = false
		var wake []int
		for i := range e.cb {
			if e.cb[i] {
				e.cb[i] = false
				e.fe[i] = false
				wake = append(wake, i)
			} else {
				e.fe[i] = true
			}
		}
		return wake
	case memtypes.CBOne:
		e.one = true
		victim := r.pickWake(e)
		if victim < 0 {
			setAll(e.fe, true)
			return nil
		}
		e.cb[victim] = false
		setAll(e.fe, false)
		return []int{victim}
	case memtypes.CBZero:
		if !e.one {
			e.one = true
			setAll(e.fe, false)
		}
		return nil
	}
	panic("unknown mode")
}

func (r *refDirectory) pickWake(e *refEntry) int {
	switch r.policy {
	case WakeRoundRobin:
		for i := 0; i < r.cores; i++ {
			c := (e.wake + i) % r.cores
			if e.cb[c] {
				e.wake = (c + 1) % r.cores
				return c
			}
		}
		return -1
	case WakeLowestID:
		for c := 0; c < r.cores; c++ {
			if e.cb[c] {
				return c
			}
		}
		return -1
	}
	panic("unknown policy")
}

func (r *refDirectory) cancel(core int, addr memtypes.Addr) bool {
	e := r.entries[addr]
	if e == nil || !e.cb[core] {
		return false
	}
	e.cb[core] = false
	return true
}

// vector packs the model's per-core bits into the directory's form, so a
// stray bit above the machine's cores shows as a difference.
func vector(bs []bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << i
		}
	}
	return v
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

func setAll(bs []bool, v bool) {
	for i := range bs {
		bs[i] = v
	}
}

// checkEntry compares the real directory's snapshot of addr against the
// model. EntryState touches the LRU clock on both... only the real side
// has one, so it is only called on addresses the op just touched (the
// real op already touched the LRU there).
func checkEntry(t *testing.T, d *Directory, r *refDirectory, addr memtypes.Addr, op string) {
	t.Helper()
	fe, cb, one, ok := d.EntryState(addr)
	e := r.entries[addr]
	if ok != (e != nil) {
		t.Fatalf("%s on %#x: directory entry present=%v, model present=%v", op, uint64(addr), ok, e != nil)
	}
	if !ok {
		return
	}
	if fe != vector(e.fe) || cb != vector(e.cb) || one != e.one {
		t.Fatalf("%s on %#x diverged:\n directory fe=%v cb=%v one=%v\n model     fe=%v cb=%v one=%v",
			op, uint64(addr), coreList(fe), coreList(cb), one, waiterSet(e.fe), waiterSet(e.cb), e.one)
	}
}

// FuzzDirectory drives the real callback directory and the reference
// model with the same operation stream and fails on any observable
// divergence: read satisfy/block results, wake lists (membership and
// order), eviction waiter lists, per-entry F/E-CB-A/O state, and final
// occupancy. Evictions chosen by the real directory (capacity pressure
// or ForceEvict) are applied to the model as an oracle.
//
// The protocol layer never issues a second ld_cb from a core that
// already has a pending callback (the core is parked), so the fuzzer
// skips those ops instead of exercising the directory's panic.
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{0x21, 0x00, 0x10, 0x02, 0x00, 0x41, 0x00})       // read, read, write CBOne
	f.Add([]byte{0x01, 0x11, 0x21, 0x31, 0x51, 0x61, 0x71, 0x41}) // fill a 1-entry bank: eviction storm
	f.Add([]byte{0x00, 0x40, 0x00, 0x30, 0x00, 0x80, 0x05, 0x90}) // through + cancel + force-evict
	f.Add([]byte{0xff, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}) // config byte stress
	// 64 cores: cores 63 and 0 wait, CBOne wakes 0 then 63 and wraps the
	// round-robin pointer back to 0, and a CBOne with no waiters fills all
	// 64 F/E bits for core 32's read.
	f.Add([]byte{0x87, 0x00, 63, 0x00, 63, 0x00, 0, 0x00, 0, 0x50, 0, 0x00, 0,
		0x50, 0, 0x50, 0, 0x50, 0, 0x00, 32, 0x40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		// First byte configures the bank; the rest is the op stream.
		cfg := data[0]
		cores := 1 + int(cfg&0x07) // 1..8 cores
		wide := cfg&0x80 != 0
		if wide {
			cores += 56 // 57..64 cores: the top bits of the vectors
		}
		entries := 1 + int(cfg>>3&0x03) // 1..4 entries: small banks evict often
		policy := WakePolicy(cfg >> 5 & 1)
		evict := EvictPolicy(cfg >> 6 & 1)

		d := New(entries, cores)
		d.SetWakePolicy(policy)
		d.SetEvictPolicy(evict)
		r := newRef(cores, policy)

		addrs := [8]memtypes.Addr{}
		for i := range addrs {
			addrs[i] = memtypes.Addr(0x1000 + i*8) // distinct word-granular tags
		}

		ops := data[1:]
		for pc := 0; pc < len(ops); pc++ {
			b := ops[pc]
			op := b >> 4
			addr := addrs[b>>1&0x07]
			core := int(b&0x0f) % cores
			if wide {
				// A second byte picks the core, so any two cores,
				// the top ones included, can meet on one address.
				if pc++; pc == len(ops) {
					break
				}
				core = int(ops[pc]) % cores
			}
			label := fmt.Sprintf("op %d (byte %#02x)", pc, b)
			switch {
			case op < 0x3: // callback read
				if e := r.entries[addr]; e != nil && e.cb[core] {
					continue // a parked core never issues another ld_cb
				}
				installs := r.entries[addr] == nil
				res, ev := d.CallbackRead(core, addr)
				if installs && d.Live() == len(r.entries) {
					// The install displaced an entry.
					r.applyEviction(t, ev)
				} else if ev != (Eviction{}) {
					t.Fatalf("%s: CallbackRead reported eviction %+v but displaced nothing", label, ev)
				}
				want := r.read(core, addr)
				if res != want {
					t.Fatalf("%s: CallbackRead(%d, %#x) = %v, model says %v", label, core, uint64(addr), res, want)
				}
			case op < 0x4: // read-through
				d.ReadThrough(core, addr)
				r.readThrough(core, addr)
			case op < 0x7: // write (mode from the op nibble)
				mode := memtypes.CBWrite(op - 0x4)
				wake := coreList(d.Write(addr, mode))
				want := r.write(addr, mode)
				if fmt.Sprint(wake) != fmt.Sprint(want) {
					t.Fatalf("%s: Write(%#x, %v) woke %v, model says %v", label, uint64(addr), mode, wake, want)
				}
			case op < 0x8: // cancel
				got := d.CancelCallback(core, addr)
				want := r.cancel(core, addr)
				if got != want {
					t.Fatalf("%s: CancelCallback(%d, %#x) = %v, model says %v", label, core, uint64(addr), got, want)
				}
			default: // forced eviction (the chaos layer's storm primitive)
				ev := d.ForceEvict(int(b & 0x0f))
				if len(r.entries) == 0 {
					if ev != (Eviction{}) {
						t.Fatalf("%s: ForceEvict reported %+v but the model holds no entries", label, ev)
					}
					continue
				}
				r.applyEviction(t, ev)
			}
			checkEntry(t, d, r, addr, label)
		}

		// Final occupancy and per-entry state must agree exactly.
		if d.Live() != len(r.entries) {
			t.Fatalf("final occupancy: directory %d, model %d", d.Live(), len(r.entries))
		}
		for addr := range r.entries {
			checkEntry(t, d, r, addr, "final")
		}
	})
}
