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
	"repro/internal/trace"
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

	mode  Mode
	cbdir *core.Directory

	// chaos, when non-nil, injects directory-level faults (forced
	// evictions, spurious wakes, delayed wake visibility) and LLC
	// latency jitter; nil on the default path.
	//cbvet:ephemeral wiring pointer installed at construction; chaos-engine state is deliberately excluded from digests (see machine/digest.go)
	chaos *chaos.Engine

	// queueLocks holds the ModeQueueLock blocking bits and FIFO queues
	// (see queuelock.go).
	queueLocks map[memtypes.Addr]*qlState

	// busy and deferq implement the per-line LLC MSHR lock: operations
	// on a locked line queue FIFO until the holder releases. busy lists
	// the locked lines, in no order; a bank rarely holds more than two.
	busy   []memtypes.Addr
	deferq memtypes.LineQueues

	// parked holds callback reads (and RMWs) blocked in the callback
	// directory, keyed by word address then core.
	parked map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message

	// spareParked and spareWakes recycle drained per-word parked sets and
	// delivered wake batches.
	//cbvet:ephemeral recycled empty parked sets; they hold no operations
	spareParked []map[memtypes.NodeID]*memtypes.Message
	//cbvet:ephemeral recycled delivered wake batches; they hold no wakes
	spareWakes []*wakeBatch

	// obs receives callback-directory activity (EvCBBlock, EvCBWake,
	// EvCBStale for the waiting core, EvCBOcc for this bank) and
	// cycle-accounting legs of requester cores' in-flight racy operations
	// (observational only).
	obs trace.Hook

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
		parked:     make(map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message),
		queueLocks: make(map[memtypes.Addr]*qlState),
	}
	if cfg.Mode == ModeCallback {
		b.cbdir = core.New(cfg.CBEntriesPerBank, cores)
		b.cbdir.SetWakePolicy(cfg.WakePolicy)
		b.cbdir.SetEvictPolicy(cfg.CBEvict)
		b.cbdir.SetLineGranular(cfg.CBLineGranular)
	}
	return b
}

// Stats returns the controller counters.
func (b *Bank) Stats() BankCtrlStats { return b.stats }

// SetObserver installs the hook the bank emits the given kinds to.
func (b *Bank) SetObserver(fn func(trace.Event), kinds trace.Mask) { b.obs.Set(fn, kinds) }

// cycSpan books a closed cycle-accounting segment for core.
func (b *Bank) cycSpan(core memtypes.NodeID, lat uint64, cat cycles.Category) {
	b.obs.Span(core, b.k.Now(), b.k.Now()+lat, uint64(cat))
}

// observeOcc samples the callback directory's occupancy after a
// consultation (the EvCBOcc feeding the occupancy histogram). The Live
// scan only runs when the kind is wanted.
func (b *Bank) observeOcc(addr memtypes.Addr) {
	if b.obs.On(trace.EvCBOcc) && b.cbdir != nil {
		b.obs.Emit(trace.Event{Kind: trace.EvCBOcc, Core: b.id, Cycle: b.k.Now(), Addr: addr,
			A: uint64(b.cbdir.Live())})
	}
}

// DataStats returns the underlying LLC access counters.
func (b *Bank) DataStats() mem.BankStats { return b.data.Stats() }

// CBDir exposes the callback directory (nil in back-off mode) for stats.
func (b *Bank) CBDir() *core.Directory { return b.cbdir }

// Bank event stages: the arg of the kernel events the bank schedules on
// itself. Every stage but stageWake carries the operation's message as
// the event data; stageWake carries a *wakeBatch.
const (
	stageFill     = iota // a line fill read the LLC: send the data
	stageWTAck           // a write-through was absorbed: ack the L1
	stageLoad            // a racy load read the LLC: respond with the word
	stageStoreAck        // a racy store wrote the LLC: ack the writer
	stageRMW             // an atomic read the LLC: apply it and respond
	stageCBRead          // a ld_cb or callback RMW consults the directory
	stageWake            // deliver delayed callback wakes
)

// Act implements sim.Actor: it runs the stage of an operation that its
// previous stage scheduled. Scheduling the bank itself, with the message
// as payload, keeps every stage free of closure allocations.
//
//cbsim:hotpath
func (b *Bank) Act(data any, stage uint64) {
	if stage == stageWake {
		b.deliverWakes(data.(*wakeBatch))
		return
	}
	msg := data.(*memtypes.Message)
	switch stage {
	case stageFill:
		line := msg.Addr.Line()
		out := b.mesh.NewMessage()
		*out = memtypes.Message{
			Src: b.id, Dst: msg.Src, Kind: MsgDataLine,
			Class: memtypes.ClassLineData, Addr: msg.Addr,
			Core: msg.Core, LineData: b.store.LoadLine(msg.Addr),
		}
		b.mesh.Free(msg)
		b.mesh.Send(out)
		b.obs.Open(out.Core, b.k.Now(), uint64(cycles.CatNoC))
		b.release(line)
	case stageWTAck:
		line := msg.Addr.Line()
		ack := b.mesh.NewMessage()
		*ack = memtypes.Message{
			Src: b.id, Dst: msg.Src, Kind: MsgWTAck,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		}
		b.mesh.Free(msg)
		b.mesh.Send(ack)
		b.release(line)
	case stageLoad:
		line := msg.Addr.Line()
		b.respond(msg, b.store.Load(msg.Req.Addr), false)
		b.release(line)
	case stageStoreAck:
		line := msg.Addr.Line()
		b.ack(msg)
		b.release(line)
	case stageRMW:
		b.applyRMW(msg)
	case stageCBRead:
		res, ev := b.cbdir.CallbackRead(int(msg.Core), msg.Req.Addr)
		b.answerEviction(ev)
		b.observeOcc(msg.Req.Addr)
		if res == core.ReadBlocked {
			b.park(msg)
			return
		}
		b.withLine(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d unknown stage %d", b.id, stage))
	}
}

// withLine runs msg's operation under its line's lock: now if the line is
// free, otherwise once every earlier holder has released it (FIFO). The
// operation releases the line exactly once, when it completes.
//
//cbsim:hotpath
func (b *Bank) withLine(msg *memtypes.Message) {
	line := msg.Addr.Line()
	for _, l := range b.busy {
		if l == line {
			b.stats.Deferred++
			b.deferq.Push(line, msg)
			return
		}
	}
	b.busy = append(b.busy, line)
	b.locked(msg)
}

// release hands line to its next queued operation, or unlocks it.
//
//cbsim:hotpath
func (b *Bank) release(line memtypes.Addr) {
	if next := b.deferq.Pop(line); next != nil {
		b.locked(next)
		return
	}
	for i, l := range b.busy {
		if l == line {
			last := len(b.busy) - 1
			b.busy[i] = b.busy[last]
			b.busy = b.busy[:last]
			return
		}
	}
}

// locked starts msg's operation once it holds the line lock: the LLC
// access, whose completion runs as a later stage.
//
//cbsim:hotpath
func (b *Bank) locked(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine:
		b.readLLC(msg, msg.Addr, stageFill)
	case MsgWTLine:
		b.writeLine(msg)
	case MsgRacy:
		switch msg.Req.Kind {
		case memtypes.OpReadThrough, memtypes.OpReadCB:
			b.readLLC(msg, msg.Req.Addr, stageLoad)
		case memtypes.OpRMW:
			b.readLLC(msg, msg.Req.Addr, stageRMW)
		default:
			b.writeWord(msg)
		}
	default:
		panic(fmt.Sprintf("vips: bank %d cannot lock for %s", b.id, msg))
	}
}

// readLLC starts the LLC data access at addr for msg's operation; stage
// completes the operation when the access finishes.
//
//cbsim:hotpath
func (b *Bank) readLLC(msg *memtypes.Message, addr memtypes.Addr, stage uint64) {
	lat := b.accessLat(addr, true, msg.Req.PhaseKind())
	b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
	b.k.ScheduleActor(lat, b, msg, stage)
}

// Deliver routes L1-to-bank messages.
func (b *Bank) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine:
		b.obs.Close(msg.Core, b.k.Now()) // the demand request's NoC leg ends here
		b.withLine(msg)
	case MsgWTLine:
		b.withLine(msg) // background write-through: not a core stall leg
	case MsgRacy:
		b.obs.Close(msg.Core, b.k.Now())
		b.handleRacy(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d cannot handle %s", b.id, msg))
	}
}

// writeLine absorbs a write-through under the line lock and acks it
// (stageWTAck).
//
//cbsim:hotpath
func (b *Bank) writeLine(msg *memtypes.Message) {
	b.store.StoreLineWords(msg.Addr, msg.LineData, msg.Mask)
	// An ordinary write-through behaves as a normal write for any
	// callback entries covering its words: reset to All mode and wake
	// everyone (Section 2.4: "any normal write or read resets the A/O bit
	// to All").
	if b.cbdir != nil {
		base := msg.Addr.Line()
		for i, m := range msg.Mask {
			if !m {
				continue
			}
			w := base + memtypes.Addr(i*memtypes.WordBytes)
			if b.cbdir.HasEntry(w) {
				wb := b.newWakes(w, msg.LineData[i])
				wb.cores = b.cbdir.Write(wb.cores, w, memtypes.CBAll)
				b.wakeAfter(0, wb)
			}
		}
	}
	lat := b.accessLat(msg.Addr, true, 0)
	b.k.ScheduleActor(lat, b, msg, stageWTAck)
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
		b.withLine(msg)
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
//
//cbsim:hotpath
func (b *Bank) readThrough(msg *memtypes.Message) {
	if b.cbdir != nil {
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), msg.Req.Addr)
		b.observeOcc(msg.Req.Addr)
	}
	b.withLine(msg)
}

// callbackRead serves a ld_cb: consult the directory first (1 cycle,
// stageCBRead); satisfied reads proceed to the LLC, blocked reads park
// without holding the line lock.
//
//cbsim:hotpath
func (b *Bank) callbackRead(msg *memtypes.Message) {
	b.stats.CBDirAccesses++
	b.cycSpan(msg.Core, CBDirLatency, cycles.CatCoherenceStall)
	b.k.ScheduleActor(CBDirLatency, b, msg, stageCBRead)
}

// writeWord serves st_through / st_cb1 / st_cb0 under the line lock:
// write the word, wake the selected callbacks (directory consulted in
// parallel with the LLC), and ack the writer (stageStoreAck).
//
//cbsim:hotpath
func (b *Bank) writeWord(msg *memtypes.Message) {
	req := msg.Req
	b.store.StoreWord(req.Addr, req.Value)
	b.qlRelease(req.Addr)
	if b.cbdir != nil {
		b.stats.CBDirAccesses++
		wb := b.newWakes(req.Addr, req.Value)
		wb.cores = b.cbdir.Write(wb.cores, req.Addr, cbWriteMode(req.Kind))
		b.observeOcc(req.Addr)
		b.wakeAfter(CBDirLatency, wb)
	}
	lat := b.accessLat(req.Addr, true, req.PhaseKind())
	b.cycSpan(msg.Core, lat, cycles.CatLLCStall)
	b.k.ScheduleActor(lat, b, msg, stageStoreAck)
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
// one LLC access (stageRMW).
//
//cbsim:hotpath
func (b *Bank) rmw(msg *memtypes.Message) {
	req := msg.Req
	if b.cbdir != nil && req.RMWLdCB {
		b.stats.CBDirAccesses++
		b.cycSpan(msg.Core, CBDirLatency, cycles.CatCoherenceStall)
		b.k.ScheduleActor(CBDirLatency, b, msg, stageCBRead)
		return
	}
	if b.cbdir != nil {
		// The plain-load half still consumes available F/E state.
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), req.Addr)
		b.observeOcc(req.Addr)
	}
	b.withLine(msg)
}

// applyRMW completes an atomic once its LLC access is done, then
// releases the line.
//
//cbsim:hotpath
func (b *Bank) applyRMW(msg *memtypes.Message) {
	req := msg.Req
	line := msg.Addr.Line()
	old := b.store.Load(req.Addr)
	if b.qlMaybeQueue(msg, old) {
		// VIPS-M blocking bit: the failing test-style RMW is held at
		// the controller; the line lock is released so the eventual
		// releasing write can proceed.
		b.release(line)
		return
	}
	newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
	if writes {
		b.store.StoreWord(req.Addr, newVal)
		if b.cbdir != nil {
			b.stats.CBDirAccesses++
			wb := b.newWakes(req.Addr, newVal)
			wb.cores = b.cbdir.Write(wb.cores, req.Addr, req.RMWSt)
			b.observeOcc(req.Addr)
			b.wakeAfter(0, wb)
		}
		if req.RMW == memtypes.RMWSwap || req.RMW == memtypes.RMWFetchAdd {
			// Unconditional atomics (signals) release queued waiters
			// too.
			b.qlRelease(req.Addr)
		}
	}
	// A failed RMW writes nothing and services no callbacks (the
	// "Unblock" case of Section 2.6).
	b.respond(msg, old, false)
	b.release(line)
}

// park records a blocked callback read or RMW until a write (or an
// eviction) services it, keyed by the directory tag.
//
//cbsim:hotpath
func (b *Bank) park(msg *memtypes.Message) {
	w := b.cbdir.Tag(msg.Req.Addr)
	m := b.parked[w]
	if m == nil {
		if n := len(b.spareParked); n > 0 {
			m = b.spareParked[n-1]
			b.spareParked[n-1] = nil
			b.spareParked = b.spareParked[:n-1]
		} else {
			//cbvet:alloc-ok pool growth; steady state reuses drained parked sets
			m = make(map[memtypes.NodeID]*memtypes.Message)
		}
		b.parked[w] = m
	}
	if _, dup := m[msg.Core]; dup {
		panic(fmt.Sprintf("vips: bank %d core %d parked twice on %s", b.id, msg.Core, w))
	}
	m[msg.Core] = msg
	b.obs.Emit(trace.Event{Kind: trace.EvCBBlock, Core: msg.Core, Cycle: b.k.Now(), Addr: w})
}

// wake services callbacks: parked plain reads are answered directly with
// the written value ("wakeup messages carry the newly created value");
// parked RMWs re-enter execution at the LLC.
//
//cbsim:hotpath
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
		kind := trace.EvCBWake
		if stale {
			b.stats.StaleWakes++
			kind = trace.EvCBStale
		} else {
			b.stats.Wakes++
		}
		b.obs.Emit(trace.Event{Kind: kind, Core: id, Cycle: b.k.Now(), Addr: w})
		if parked.Req.Kind == memtypes.OpRMW {
			b.withLine(parked)
			continue
		}
		b.respond(parked, value, stale)
	}
	if len(m) == 0 {
		delete(b.parked, w)
		b.spareParked = append(b.spareParked, m)
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
//
//cbsim:hotpath
func (b *Bank) respond(msg *memtypes.Message, value uint64, stale bool) {
	resp := b.mesh.NewMessage()
	*resp = memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassWordData, Addr: msg.Req.Addr,
		Core: msg.Core, Value: value, Stale: stale, Req: msg.Req,
		Serial: msg.Req.Serial,
	}
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	b.obs.Open(resp.Core, b.k.Now(), uint64(cycles.CatNoC))
}

// ack sends a store completion (control message) and recycles the
// request message.
//
//cbsim:hotpath
func (b *Bank) ack(msg *memtypes.Message) {
	resp := b.mesh.NewMessage()
	*resp = memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassControl, Addr: msg.Req.Addr,
		Core: msg.Core, Value: msg.Req.Value, Req: msg.Req,
		Serial: msg.Req.Serial,
	}
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	b.obs.Open(resp.Core, b.k.Now(), uint64(cycles.CatNoC))
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
