package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is an L1 MESI line state. Invalid lines are simply absent from
// the array.
type State uint8

const (
	// StateS is a read-only shared copy.
	StateS State = iota
	// StateE is a clean exclusive copy (silently upgradable to M).
	StateE
	// StateM is a modified exclusive copy.
	StateM
)

func (s State) String() string {
	switch s {
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateM:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// L1Stats counts L1 activity.
type L1Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	Upgrades      uint64 // S->M requests
	Invalidations uint64 // lines killed by remote writers
	Writebacks    uint64 // PutM messages
	Forwards      uint64 // FwdGetS/FwdGetX served
}

// l1Line is the L1's per-line payload: the MESI state and the line's
// data words.
type l1Line struct {
	data  memtypes.Line
	state State
}

// l1Pending is the core's operation in flight (req == nil when idle).
type l1Pending struct {
	req  *memtypes.Request
	done memtypes.Completer
}

// L1 is one core's private MESI cache controller; it implements
// memtypes.Port.
type L1 struct {
	k      *sim.Kernel
	id     memtypes.NodeID
	mesh   *noc.Mesh
	store  *mem.Store
	bankOf func(memtypes.Addr) memtypes.NodeID

	arr     *cache.Array[l1Line]
	pending l1Pending

	// resp is the completion respond scheduled for delivery to respTo
	// (nil when none is in flight).
	resp   memtypes.Response
	respTo memtypes.Completer

	// spinner is the core last parked on a hit here (see Park), woken
	// when the next message is delivered to the L1.
	//cbvet:ephemeral whether a loop is parked changes no result; the machine wakes it before a digest
	spinner memtypes.Spinner

	// Monitor (quiesce/MWAIT) extension state; see monitor.go.
	//cbvet:ephemeral configuration toggle set at wiring time, never changed mid-run
	monitorEnabled bool
	monitor        monitorState
	monStats       MonitorStats

	// obs receives cycle-accounting legs of the core's in-flight
	// operation and monitor arm/wake events (observational only).
	obs trace.Hook

	stats L1Stats
}

// NewL1 builds the MESI L1 for core id (32KB, 4-way).
func NewL1(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, bankOf func(memtypes.Addr) memtypes.NodeID) *L1 {
	return &L1{
		k: k, id: id, mesh: mesh, store: store, bankOf: bankOf,
		arr: cache.NewArray[l1Line](32*1024, 4),
	}
}

// SetObserver installs the hook the L1 emits the given kinds to.
func (l *L1) SetObserver(fn func(trace.Event), kinds trace.Mask) { l.obs.Set(fn, kinds) }

// Stats returns the L1 counters.
func (l *L1) Stats() L1Stats { return l.stats }

// ID returns the tile's node ID.
func (l *L1) ID() memtypes.NodeID { return l.id }

// LineState reports the state of addr's line (tests). ok is false when
// the line is not resident.
func (l *L1) LineState(addr memtypes.Addr) (State, bool) {
	if line := l.arr.Peek(addr); line != nil {
		return line.State.state, true
	}
	return 0, false
}

// mapKind folds the racy operations of the self-invalidation protocols
// onto their plain MESI equivalents: under invalidation-based coherence,
// synchronization uses ordinary cached accesses and spins locally.
func mapKind(k memtypes.OpKind) memtypes.OpKind {
	switch k {
	case memtypes.OpReadThrough, memtypes.OpReadCB:
		return memtypes.OpRead
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
		return memtypes.OpWrite
	default:
		return k
	}
}

// Access implements memtypes.Port.
//
//cbsim:hotpath
func (l *L1) Access(req *memtypes.Request, done memtypes.Completer) {
	if l.pending.req != nil {
		panic(fmt.Sprintf("mesi: core %d issued a second request while one is outstanding", l.id))
	}
	if l.monitorEnabled && req.Kind == memtypes.OpReadCB {
		l.accessMonitored(req, done)
		return
	}
	kind := mapKind(req.Kind)
	if kind.IsFence() {
		// MESI needs no self-invalidation or self-downgrade.
		l.obs.Span(l.id, l.k.Now(), l.k.Now()+mem.DefaultL1Latency, uint64(cycles.CatL1Stall))
		l.respond(mem.DefaultL1Latency, done, memtypes.Response{})
		return
	}
	l.pending = l1Pending{req: req, done: done}
	l.stats.Accesses++
	line := l.arr.Lookup(req.Addr)
	switch kind {
	case memtypes.OpRead:
		if line != nil {
			l.stats.Hits++
			l.finish(line, mem.DefaultL1Latency, true)
			return
		}
		l.stats.Misses++
		l.request(MsgGetS, req)
	case memtypes.OpWrite, memtypes.OpRMW:
		if line != nil && line.State.state != StateS {
			l.stats.Hits++
			line.State.state = StateM // silent E->M upgrade
			l.finish(line, mem.DefaultL1Latency, true)
			return
		}
		if line != nil {
			l.stats.Upgrades++
		} else {
			l.stats.Misses++
		}
		l.request(MsgGetX, req)
	default:
		panic(fmt.Sprintf("mesi: unexpected op %s", kind))
	}
}

func (l *L1) request(kind memtypes.MsgKind, req *memtypes.Request) {
	msg := l.mesh.NewMessage()
	msg.Src, msg.Dst, msg.Kind, msg.Class = l.id, l.bankOf(req.Addr), kind, memtypes.ClassControl
	msg.Addr, msg.Core, msg.Req = req.Addr.Line(), l.id, req
	l.mesh.Send(msg)
	l.obs.Open(l.id, l.k.Now(), uint64(cycles.CatNoC))
}

// finish applies the pending operation to a resident line with the
// required permissions and responds to the core.
//
//cbsim:hotpath
func (l *L1) finish(line *cache.Line[l1Line], delay uint64, hit bool) {
	p := l.pending
	l.pending = l1Pending{}
	req := p.req
	w := req.Addr.WordIndex()
	resp := memtypes.Response{Hit: hit}
	l.obs.Span(l.id, l.k.Now(), l.k.Now()+delay, uint64(cycles.CatL1Stall))
	switch mapKind(req.Kind) {
	case memtypes.OpRead:
		resp.Value = line.State.data[w]
	case memtypes.OpWrite:
		line.State.data[w] = req.Value
		// The single M copy is the current value: commit globally.
		l.store.StoreWord(req.Addr, req.Value)
	case memtypes.OpRMW:
		old := line.State.data[w]
		newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
		if writes {
			line.State.data[w] = newVal
			l.store.StoreWord(req.Addr, newVal)
		}
		resp.Value = old
	}
	l.respond(delay, p.done, resp)
}

// L1 event stages: the arg of the kernel events the L1 schedules on
// itself.
const (
	stageRespond = iota // deliver resp to respTo
	stageResume         // re-issue the load of a woken monitor
)

// respond delivers resp to the core after delay cycles, through an actor
// event so that delivery does not allocate.
//
//cbsim:hotpath
func (l *L1) respond(delay uint64, to memtypes.Completer, resp memtypes.Response) {
	if l.respTo != nil {
		panic(fmt.Sprintf("mesi: core %d completed an operation while a response is in flight", l.id))
	}
	l.resp, l.respTo = resp, to
	l.k.ScheduleActor(delay, l, nil, stageRespond)
}

// Act implements sim.Actor.
//
//cbsim:hotpath
func (l *L1) Act(_ any, stage uint64) {
	switch stage {
	case stageRespond:
		to := l.respTo
		l.respTo = nil
		to.Complete(l.resp)
	case stageResume:
		l.resume()
	default:
		panic(fmt.Sprintf("mesi: L1 %d unknown stage %d", l.id, stage))
	}
}

// handleData installs a granted line and completes the pending miss.
func (l *L1) handleData(msg *memtypes.Message) {
	if l.pending.req == nil || l.pending.req.Addr.Line() != msg.Addr {
		panic(fmt.Sprintf("mesi: core %d unexpected data for %s", l.id, msg.Addr))
	}
	l.obs.Close(l.id, l.k.Now())
	line := l.arr.Peek(msg.Addr)
	if line == nil {
		l.evictFor(msg.Addr)
		line = l.arr.Allocate(msg.Addr)
		line.State.data = msg.LineData
	}
	switch msg.Kind {
	case MsgDataS:
		line.State.state = StateS
	case MsgDataE:
		line.State.state = StateE
	case MsgDataX:
		line.State.state = StateM
		// A DataX response supersedes any stale local copy.
		line.State.data = msg.LineData
	}
	l.mesh.Free(msg)
	l.finish(line, mem.DefaultL1Latency, false)
}

// evictFor makes room for a fill of addr.
func (l *L1) evictFor(addr memtypes.Addr) {
	v := l.arr.Victim(addr)
	if !v.Valid {
		return
	}
	switch v.State.state {
	case StateM:
		l.stats.Writebacks++
		msg := l.mesh.NewMessage()
		msg.Src, msg.Dst, msg.Kind, msg.Class = l.id, l.bankOf(v.Addr), MsgPutM, memtypes.ClassLineData
		msg.Addr, msg.Core = v.Addr, l.id
		msg.LineData = v.State.data
		l.mesh.Send(msg)
	case StateE:
		msg := l.mesh.NewMessage()
		msg.Src, msg.Dst, msg.Kind, msg.Class = l.id, l.bankOf(v.Addr), MsgPutE, memtypes.ClassControl
		msg.Addr, msg.Core = v.Addr, l.id
		l.mesh.Send(msg)
	case StateS:
		// Silent eviction: the directory's sharer bit goes stale and a
		// later Inv is acked without a copy.
	}
	l.arr.Invalidate(v.Addr)
}

// handleInv invalidates a line and acks, whether or not a copy remains.
func (l *L1) handleInv(msg *memtypes.Message) {
	if l.arr.Invalidate(msg.Addr) {
		l.stats.Invalidations++
	}
	l.monitorInvalidated(msg.Addr)
	ack := l.mesh.NewMessage()
	ack.Src, ack.Dst, ack.Kind, ack.Class = l.id, msg.Src, MsgInvAck, memtypes.ClassControl
	ack.Addr, ack.Core = msg.Addr, l.id
	l.mesh.Free(msg)
	l.mesh.Send(ack)
}

// handleFwd serves a forwarded request: return the line to the directory
// and downgrade (GetS) or invalidate (GetX). An owner that already
// evicted the line still responds — the directory reconciles with the
// in-flight writeback.
func (l *L1) handleFwd(msg *memtypes.Message) {
	l.stats.Forwards++
	data := l.store.LoadLine(msg.Addr)
	if line := l.arr.Peek(msg.Addr); line != nil {
		data = line.State.data
		if msg.Kind == MsgFwdGetS {
			line.State.state = StateS
		} else {
			l.arr.Invalidate(msg.Addr)
			l.monitorInvalidated(msg.Addr)
		}
	}
	wb := l.mesh.NewMessage()
	wb.Src, wb.Dst, wb.Kind, wb.Class = l.id, msg.Src, MsgDataWB, memtypes.ClassLineData
	wb.Addr, wb.Core = msg.Addr, msg.Core
	wb.LineData = data
	l.mesh.Free(msg)
	l.mesh.Send(wb)
}

// Park implements memtypes.SpinPort: a read of a resident line hits now
// and keeps hitting until a message is delivered here. Its one port-side
// event is the response, a hit latency after the issue.
//
//cbsim:hotpath
func (l *L1) Park(req *memtypes.Request, s memtypes.Spinner) (sim.GhostCycle, bool) {
	if req.Kind != memtypes.OpRead || l.arr.Peek(req.Addr) == nil {
		return sim.GhostCycle{}, false
	}
	l.spinner = s
	return sim.GhostCycle{Delays: [sim.MaxGhostPhases]uint64{mem.DefaultL1Latency}, Len: 1}, true
}

// SpinEvents implements memtypes.SpinPort: it books n issues (phase 0)
// of req as n read hits of its line, exactly as n Access calls would,
// cycle-accounting spans included. The response (phase 1) has no
// effect on the L1.
//
//cbsim:hotpath
func (l *L1) SpinEvents(req *memtypes.Request, p int, n, first, period uint64) {
	if p != 0 {
		return
	}
	l.stats.Accesses += n
	l.stats.Hits += n
	l.arr.CreditHits(req.Addr, n)
	if l.obs.On(trace.EvSpan) {
		for i := uint64(0); i < n; i++ {
			at := first + i*period
			l.obs.Span(l.id, at, at+mem.DefaultL1Latency, uint64(cycles.CatL1Stall))
		}
	}
}

// SpinResume implements memtypes.SpinPort: it schedules, in place of g's
// pending event, the response (p is 1) to the read hit of req a woken
// spinner issued one hit latency earlier, as finish would have.
//
//cbsim:hotpath
func (l *L1) SpinResume(req *memtypes.Request, _ int, done memtypes.Completer, g *sim.Ghost) {
	if l.respTo != nil {
		panic(fmt.Sprintf("mesi: core %d woke while a response is in flight", l.id))
	}
	line := l.arr.Peek(req.Addr)
	l.resp = memtypes.Response{Hit: true, Value: line.State.data[req.Addr.WordIndex()]}
	l.respTo = done
	l.k.WakeGhost(g, l, nil, stageRespond)
}

// Deliver routes directory-to-L1 messages. A parked spinner wakes
// first: the message is the first thing since the park that can change
// the spin line.
func (l *L1) Deliver(msg *memtypes.Message) {
	if s := l.spinner; s != nil {
		l.spinner = nil
		s.Wake()
	}
	switch msg.Kind {
	case MsgDataS, MsgDataE, MsgDataX:
		l.handleData(msg)
	case MsgInv:
		l.handleInv(msg)
	case MsgFwdGetS, MsgFwdGetX:
		l.handleFwd(msg)
	case MsgWBAck:
		// Writebacks are fire-and-forget.
		l.mesh.Free(msg)
	default:
		panic(fmt.Sprintf("mesi: L1 %d cannot handle %s", l.id, msg))
	}
}
