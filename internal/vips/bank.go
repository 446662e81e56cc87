package vips

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
)

// BankCtrlStats counts LLC bank controller activity beyond the raw
// mem.BankStats access counters.
type BankCtrlStats struct {
	RacyReads     uint64
	RacyWrites    uint64
	RMWs          uint64
	CBDirAccesses uint64 // callback-directory consultations
	Wakes         uint64 // callbacks serviced by writes
	StaleWakes    uint64 // callbacks answered by directory evictions
	Deferred      uint64 // operations queued behind a locked line
	QueuedRMWs    uint64 // RMWs held by the VIPS-M blocking bit
	QueueWakes    uint64 // queued RMWs replayed by a release
}

// Bank is one LLC bank controller: it owns a slice of the address space,
// serves line fills and write-throughs, executes racy operations and
// atomics (with per-line MSHR locking, Section 2.6), and hosts the bank's
// callback directory when the protocol runs in callback mode.
type Bank struct {
	k     *sim.Kernel
	id    memtypes.NodeID
	mesh  *noc.Mesh
	store *mem.Store
	data  *mem.Bank

	mode     Mode
	cbdir    *core.Directory
	cbdirLat uint64

	// chaos, when non-nil, injects directory-level faults (forced
	// evictions, spurious wakes, delayed wake visibility) and LLC
	// latency jitter; nil on the default path.
	//cbvet:ephemeral wiring pointer installed at construction; chaos-engine state is deliberately excluded from digests (see machine/digest.go)
	chaos *chaos.Engine

	// queueLocks holds the ModeQueueLock blocking bits and FIFO queues
	// (see queuelock.go).
	queueLocks map[memtypes.Addr]*qlState

	// busy and deferq implement the per-line LLC MSHR lock: operations
	// on a locked line queue FIFO until the holder releases.
	busy   map[memtypes.Addr]bool
	deferq map[memtypes.Addr][]func()

	// parked holds callback reads (and RMWs) blocked in the callback
	// directory, keyed by word address then core.
	parked map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message

	// observer, when set, is called on callback-directory activity
	// (tracing): "cb.block", "cb.wake", "cb.stale" (core = the waiting
	// core), and "cb.occ" (core = this bank, arg = live entries after a
	// consultation).
	observer func(cycle uint64, core memtypes.NodeID, addr memtypes.Addr, what string, arg uint64)

	// cyc, when set, receives cycle-accounting segments for requester
	// cores' in-flight racy operations (observational only).
	cyc cycles.Hook

	stats BankCtrlStats
}

// NewBank builds the bank controller for node id. cores sizes the
// callback directory's bit vectors; cfg selects back-off vs callback
// mode.
func NewBank(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, cores int, cfg Config) *Bank {
	b := &Bank{
		k: k, id: id, mesh: mesh, store: store,
		mode:       cfg.Mode,
		data:       mem.NewBank(),
		busy:       make(map[memtypes.Addr]bool),
		deferq:     make(map[memtypes.Addr][]func()),
		parked:     make(map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message),
		queueLocks: make(map[memtypes.Addr]*qlState),
	}
	if cfg.Mode == ModeCallback {
		b.cbdir = core.New(cfg.CBEntriesPerBank, cores)
		b.cbdir.SetWakePolicy(cfg.WakePolicy)
		b.cbdir.SetEvictPolicy(cfg.CBEvict)
		b.cbdir.SetLineGranular(cfg.CBLineGranular)
		b.cbdirLat = cfg.CBDirLatency
	}
	return b
}

// Stats returns the controller counters.
func (b *Bank) Stats() BankCtrlStats { return b.stats }

// SetObserver installs a tracing hook for callback-directory activity.
func (b *Bank) SetObserver(fn func(cycle uint64, core memtypes.NodeID, addr memtypes.Addr, what string, arg uint64)) {
	b.observer = fn
}

// SetCyclesObserver installs the cycle-accounting hook (nil disables).
func (b *Bank) SetCyclesObserver(fn cycles.Hook) { b.cyc = fn }

// cycSpan books a closed cycle-accounting segment for core.
func (b *Bank) cycSpan(core memtypes.NodeID, lat uint64, cat cycles.Category) {
	if b.cyc != nil {
		b.cyc(int(core), cycles.EvSpan, b.k.Now(), b.k.Now()+lat, uint64(cat))
	}
}

func (b *Bank) observe(core memtypes.NodeID, addr memtypes.Addr, what string) {
	if b.observer != nil {
		b.observer(b.k.Now(), core, addr, what, 0)
	}
}

// observeOcc samples the callback directory's occupancy after a
// consultation (the cb.occ event feeding the occupancy histogram). The
// Live scan only runs when a trace sink is attached.
func (b *Bank) observeOcc(addr memtypes.Addr) {
	if b.observer != nil && b.cbdir != nil {
		b.observer(b.k.Now(), b.id, addr, "cb.occ", uint64(b.cbdir.Live()))
	}
}

// DataStats returns the underlying LLC access counters.
func (b *Bank) DataStats() mem.BankStats { return b.data.Stats() }

// CBDir exposes the callback directory (nil in back-off mode) for stats.
func (b *Bank) CBDir() *core.Directory { return b.cbdir }

// reqSyncKind extracts the synchronization-phase kind of a request (0
// when absent or not synchronizing).
func reqSyncKind(req *memtypes.Request) uint8 {
	if req == nil || !req.Sync {
		return 0
	}
	return req.SyncKind
}

// withLine runs fn under the line lock for addr's line; fn must call the
// release function it receives exactly once when the line may be handed
// to the next queued operation.
func (b *Bank) withLine(addr memtypes.Addr, fn func(release func())) {
	line := addr.Line()
	run := func() {
		fn(func() { b.release(line) })
	}
	if b.busy[line] {
		b.stats.Deferred++
		b.deferq[line] = append(b.deferq[line], run)
		return
	}
	b.busy[line] = true
	run()
}

func (b *Bank) release(line memtypes.Addr) {
	if q := b.deferq[line]; len(q) > 0 {
		next := q[0]
		if len(q) == 1 {
			delete(b.deferq, line)
		} else {
			b.deferq[line] = q[1:]
		}
		next()
		return
	}
	delete(b.busy, line)
}

// Deliver routes L1-to-bank messages.
func (b *Bank) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine:
		if b.cyc != nil { // the demand request's NoC leg ends here
			b.cyc(int(msg.Core), cycles.EvClose, b.k.Now(), 0, 0)
		}
		b.handleGetLine(msg)
	case MsgWTLine:
		b.handleWTLine(msg) // background write-through: not a core stall leg
	case MsgRacy:
		if b.cyc != nil {
			b.cyc(int(msg.Core), cycles.EvClose, b.k.Now(), 0, 0)
		}
		b.handleRacy(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d cannot handle %s", b.id, msg))
	}
}

func (b *Bank) handleGetLine(msg *memtypes.Message) {
	b.withLine(msg.Addr, func(release func()) {
		lat := b.accessLat(msg.Addr, true, reqSyncKind(msg.Req))
		b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
		b.k.Schedule(lat, func() {
			data := b.mesh.NewMessage()
			*data = memtypes.Message{
				Src: b.id, Dst: msg.Src, Kind: MsgDataLine,
				Class: memtypes.ClassLineData, Addr: msg.Addr,
				Core: msg.Core, LineData: b.store.LoadLine(msg.Addr),
			}
			b.mesh.Free(msg)
			b.mesh.Send(data)
			if b.cyc != nil {
				b.cyc(int(data.Core), cycles.EvOpen, b.k.Now(), uint64(cycles.CatNoC), 0)
			}
			release()
		})
	})
}

func (b *Bank) handleWTLine(msg *memtypes.Message) {
	b.withLine(msg.Addr, func(release func()) {
		b.store.StoreLineWords(msg.Addr, msg.LineData, msg.Mask)
		// An ordinary write-through behaves as a normal write for any
		// callback entries covering its words: reset to All mode and
		// wake everyone (Section 2.4: "any normal write or read
		// resets the A/O bit to All").
		if b.cbdir != nil {
			base := msg.Addr.Line()
			for i, m := range msg.Mask {
				if !m {
					continue
				}
				w := base + memtypes.Addr(i*memtypes.WordBytes)
				if b.cbdir.HasEntry(w) {
					b.wakeAfter(0, b.cbdir.Write(w, memtypes.CBAll), w, msg.LineData[i])
				}
			}
		}
		lat := b.accessLat(msg.Addr, true, 0)
		b.k.Schedule(lat, func() {
			ack := b.mesh.NewMessage()
			*ack = memtypes.Message{
				Src: b.id, Dst: msg.Src, Kind: MsgWTAck,
				Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
			}
			b.mesh.Free(msg)
			b.mesh.Send(ack)
			release()
		})
	})
}

func (b *Bank) handleRacy(msg *memtypes.Message) {
	req := msg.Req
	if req == nil {
		panic("vips: racy message without request")
	}
	if b.chaos != nil && b.cbdir != nil {
		b.injectChaos(req.Addr)
	}
	switch req.Kind {
	case memtypes.OpReadThrough:
		b.stats.RacyReads++
		b.readThrough(msg)
	case memtypes.OpReadCB:
		b.stats.RacyReads++
		if b.cbdir == nil {
			// Back-off mode has no callback directory; a ld_cb
			// degenerates to a ld_through.
			b.readThrough(msg)
			return
		}
		b.callbackRead(msg)
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
		b.stats.RacyWrites++
		b.racyWrite(msg)
	case memtypes.OpRMW:
		b.stats.RMWs++
		b.rmw(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d unexpected racy op %s", b.id, req.Kind))
	}
}

// readThrough serves a non-blocking racy load: consume F/E state if
// available (in parallel with the LLC access) and return the current
// value.
func (b *Bank) readThrough(msg *memtypes.Message) {
	if b.cbdir != nil {
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), msg.Req.Addr)
		b.observeOcc(msg.Req.Addr)
	}
	b.withLine(msg.Req.Addr, func(release func()) {
		lat := b.accessLat(msg.Req.Addr, true, reqSyncKind(msg.Req))
		b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
		b.k.Schedule(lat, func() {
			b.respond(msg, b.store.Load(msg.Req.Addr), false)
			release()
		})
	})
}

// callbackRead serves a ld_cb: consult the directory first (1 cycle);
// satisfied reads proceed to the LLC, blocked reads park without holding
// the line lock.
func (b *Bank) callbackRead(msg *memtypes.Message) {
	b.stats.CBDirAccesses++
	b.cycSpan(msg.Core, b.cbdirLat, cycles.CatCoherenceStall)
	b.k.Schedule(b.cbdirLat, func() {
		res, ev := b.cbdir.CallbackRead(int(msg.Core), msg.Req.Addr)
		b.answerEviction(ev)
		b.observeOcc(msg.Req.Addr)
		if res == core.ReadBlocked {
			b.park(msg)
			return
		}
		b.withLine(msg.Req.Addr, func(release func()) {
			lat := b.accessLat(msg.Req.Addr, true, reqSyncKind(msg.Req))
			b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
			b.k.Schedule(lat, func() {
				b.respond(msg, b.store.Load(msg.Req.Addr), false)
				release()
			})
		})
	})
}

// racyWrite serves st_through / st_cb1 / st_cb0: write the word, wake the
// selected callbacks (directory consulted in parallel with the LLC), and
// ack the writer.
func (b *Bank) racyWrite(msg *memtypes.Message) {
	req := msg.Req
	b.withLine(req.Addr, func(release func()) {
		b.store.StoreWord(req.Addr, req.Value)
		b.qlRelease(req.Addr)
		if b.cbdir != nil {
			b.stats.CBDirAccesses++
			mode := cbWriteMode(req.Kind)
			wakes := b.cbdir.Write(req.Addr, mode)
			b.observeOcc(req.Addr)
			b.wakeAfter(b.cbdirLat, wakes, req.Addr, req.Value)
		}
		lat := b.accessLat(req.Addr, true, reqSyncKind(req))
		b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
		b.k.Schedule(lat, func() {
			b.ack(msg)
			release()
		})
	})
}

func cbWriteMode(k memtypes.OpKind) memtypes.CBWrite {
	switch k {
	case memtypes.OpWriteThrough:
		return memtypes.CBAll
	case memtypes.OpWriteCB1:
		return memtypes.CBOne
	case memtypes.OpWriteCB0:
		return memtypes.CBZero
	}
	panic(fmt.Sprintf("vips: %s is not a racy write", k))
}

// rmw serves an atomic. The load half consults the callback directory
// (blocking the whole RMW if it is a ld_cb and the value was consumed);
// once admitted, the RMW locks the line and executes read-modify-write in
// one LLC access.
func (b *Bank) rmw(msg *memtypes.Message) {
	req := msg.Req
	if b.cbdir != nil && req.RMWLdCB {
		b.stats.CBDirAccesses++
		b.cycSpan(msg.Core, b.cbdirLat, cycles.CatCoherenceStall)
		b.k.Schedule(b.cbdirLat, func() {
			res, ev := b.cbdir.CallbackRead(int(msg.Core), req.Addr)
			b.answerEviction(ev)
			b.observeOcc(req.Addr)
			if res == core.ReadBlocked {
				b.park(msg)
				return
			}
			b.executeRMW(msg)
		})
		return
	}
	if b.cbdir != nil {
		// The plain-load half still consumes available F/E state.
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), req.Addr)
		b.observeOcc(req.Addr)
	}
	b.executeRMW(msg)
}

// executeRMW performs the atomic under the line lock.
func (b *Bank) executeRMW(msg *memtypes.Message) {
	req := msg.Req
	b.withLine(req.Addr, func(release func()) {
		lat := b.accessLat(req.Addr, true, reqSyncKind(req))
		b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
		b.k.Schedule(lat, func() {
			old := b.store.Load(req.Addr)
			if b.qlMaybeQueue(msg, old) {
				// VIPS-M blocking bit: the failing test-style RMW is
				// held at the controller; the line lock is released
				// so the eventual releasing write can proceed.
				release()
				return
			}
			newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
			if writes {
				b.store.StoreWord(req.Addr, newVal)
				if b.cbdir != nil {
					b.stats.CBDirAccesses++
					wakes := b.cbdir.Write(req.Addr, req.RMWSt)
					b.observeOcc(req.Addr)
					b.wakeAfter(0, wakes, req.Addr, newVal)
				}
				if writes && (req.RMW == memtypes.RMWSwap || req.RMW == memtypes.RMWFetchAdd) {
					// Unconditional atomics (signals) release queued
					// waiters too.
					b.qlRelease(req.Addr)
				}
			}
			// A failed RMW writes nothing and services no callbacks
			// (the "Unblock" case of Section 2.6).
			b.respond(msg, old, false)
			release()
		})
	})
}

// park records a blocked callback read or RMW until a write (or an
// eviction) services it, keyed by the directory tag.
func (b *Bank) park(msg *memtypes.Message) {
	w := b.cbdir.Tag(msg.Req.Addr)
	m := b.parked[w]
	if m == nil {
		m = make(map[memtypes.NodeID]*memtypes.Message)
		b.parked[w] = m
	}
	if _, dup := m[msg.Core]; dup {
		panic(fmt.Sprintf("vips: bank %d core %d parked twice on %s", b.id, msg.Core, w))
	}
	m[msg.Core] = msg
	b.observe(msg.Core, w, "cb.block")
	if b.cyc != nil {
		b.cyc(int(msg.Core), cycles.EvOpen, b.k.Now(), uint64(cycles.CatCBBlocked), 0)
	}
}

// wake services callbacks: parked plain reads are answered directly with
// the written value ("wakeup messages carry the newly created value");
// parked RMWs re-enter execution at the LLC.
func (b *Bank) wake(cores []int, addr memtypes.Addr, value uint64, stale bool) {
	if len(cores) == 0 {
		return
	}
	w := b.cbdir.Tag(addr)
	m := b.parked[w]
	for _, c := range cores {
		id := memtypes.NodeID(c)
		parked := m[id]
		if parked == nil {
			panic(fmt.Sprintf("vips: bank %d woke core %d on %s with no parked op", b.id, c, w))
		}
		delete(m, id)
		if stale {
			b.stats.StaleWakes++
			b.observe(id, w, "cb.stale")
		} else {
			b.stats.Wakes++
			b.observe(id, w, "cb.wake")
		}
		if b.cyc != nil { // the blocked episode ends at the wake
			b.cyc(int(id), cycles.EvClose, b.k.Now(), 0, 0)
		}
		if parked.Req.Kind == memtypes.OpRMW {
			b.executeRMW(parked)
			continue
		}
		b.respond(parked, value, stale)
	}
	if len(m) == 0 {
		delete(b.parked, w)
	}
}

// answerEviction services the waiters of an evicted directory entry with
// the current value (Section 2.3.1).
func (b *Bank) answerEviction(ev *core.Eviction) {
	if ev == nil {
		return
	}
	b.wake(ev.Waiters, ev.Addr, b.store.Load(ev.Addr), true)
}

// respond sends a racy-op completion carrying a data word and recycles
// the request message: it is the terminal step of the operation.
func (b *Bank) respond(msg *memtypes.Message, value uint64, stale bool) {
	resp := b.mesh.NewMessage()
	*resp = memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassWordData, Addr: msg.Req.Addr,
		Core: msg.Core, Value: value, Stale: stale, Req: msg.Req,
	}
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	if b.cyc != nil {
		b.cyc(int(resp.Core), cycles.EvOpen, b.k.Now(), uint64(cycles.CatNoC), 0)
	}
}

// ack sends a store completion (control message) and recycles the
// request message.
func (b *Bank) ack(msg *memtypes.Message) {
	resp := b.mesh.NewMessage()
	*resp = memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassControl, Addr: msg.Req.Addr,
		Core: msg.Core, Value: msg.Req.Value, Req: msg.Req,
	}
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	if b.cyc != nil {
		b.cyc(int(resp.Core), cycles.EvOpen, b.k.Now(), uint64(cycles.CatNoC), 0)
	}
}

// Parked reports how many operations are currently blocked in the bank's
// callback directory (tests and deadlock diagnostics).
func (b *Bank) Parked() int {
	n := 0
	//cbvet:unordered commutative sum over parked sets
	for _, m := range b.parked {
		n += len(m)
	}
	return n
}
