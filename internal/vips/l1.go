package vips

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

// L1Stats counts L1 activity.
type L1Stats struct {
	Accesses      uint64 // tag+data accesses (DRF hits and fills)
	Hits          uint64
	Misses        uint64
	WriteThroughs uint64 // write-through messages sent (evictions + fences)
	SelfInvls     uint64 // lines invalidated by acquire fences
	SelfDowns     uint64 // self-downgrade fences executed
	RacyOps       uint64 // operations forwarded to the LLC
}

// l1Line is the L1's per-line payload: the line's data words, which of
// them are dirty, and whether the line holds private data.
type l1Line struct {
	data    memtypes.Line
	dirty   [memtypes.WordsPerLine]bool
	private bool
}

func (l *l1Line) anyDirty() bool {
	for _, d := range l.dirty {
		if d {
			return true
		}
	}
	return false
}

// pendingOp is the core's operation in flight (req == nil when idle).
type pendingOp struct {
	req  *memtypes.Request
	done memtypes.Completer
	// fence marks an in-progress fence waiting for write-through acks.
	fence bool
	// invlAfter marks a self-invalidation to perform once all
	// write-throughs drain (self_invl first self-downgrades dirty data,
	// footnote 7 of the paper).
	invlAfter bool
}

// L1 is one core's private cache controller; it implements memtypes.Port
// and handles bank responses delivered by the tile.
type L1 struct {
	k      *sim.Kernel
	id     memtypes.NodeID
	mesh   *noc.Mesh
	bankOf func(memtypes.Addr) memtypes.NodeID

	arr     *cache.Array[l1Line]
	pending pendingOp

	// resp is the completion respond scheduled for delivery to respTo
	// (nil when none is in flight).
	resp   memtypes.Response
	respTo memtypes.Completer

	// wtOutstanding counts unacknowledged write-throughs (evictions and
	// fences alike). A fence completes only when this drains to zero,
	// guaranteeing release-to-acquire visibility.
	wtOutstanding int

	// Spin parking (see Park): tile is the L1's tile, and lastRacy the
	// value of the last racy response, which decides only whether a
	// spin parks, changing no result.
	//cbvet:ephemeral wiring: installed by NewTile
	tile *Tile
	//cbvet:ephemeral decides only whether a spin parks
	lastRacy uint64

	// obs receives cycle-accounting legs of the core's in-flight
	// operation (observational only).
	obs trace.Hook

	stats L1Stats
}

// NewL1 builds the L1 for core id with the paper's 32KB 4-way geometry.
func NewL1(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, bankOf func(memtypes.Addr) memtypes.NodeID) *L1 {
	return &L1{
		k: k, id: id, mesh: mesh, bankOf: bankOf,
		arr: cache.NewArray[l1Line](32*1024, 4),
	}
}

// SetObserver installs the hook the L1 emits the given kinds to. A spin
// parked on the tile's bank resumes as scheduled events when a kind its
// iterations emit is wanted (see Park).
func (l *L1) SetObserver(fn func(trace.Event), kinds trace.Mask) {
	l.obs.Set(fn, kinds)
	if l.tile != nil && l.obs.Wants(spinSeenKinds) {
		l.tile.wakeSpinner()
	}
}

// Stats returns the L1 counters.
func (l *L1) Stats() L1Stats { return l.stats }

// ValidLines reports the number of resident lines (tests).
func (l *L1) ValidLines() int { return l.arr.CountValid() }

// Access implements memtypes.Port.
//
//cbsim:hotpath
func (l *L1) Access(req *memtypes.Request, done memtypes.Completer) {
	if l.pending.req != nil {
		panic(fmt.Sprintf("vips: core %d issued a second request while one is outstanding", l.id))
	}
	l.pending = pendingOp{req: req, done: done}
	switch req.Kind {
	case memtypes.OpRead, memtypes.OpWrite:
		l.accessDRF()
	case memtypes.OpFenceSelfInvl:
		l.fence(true)
	case memtypes.OpFenceSelfDown:
		l.fence(false)
	default:
		if !req.Kind.IsRacy() {
			panic(fmt.Sprintf("vips: unexpected op %s", req.Kind))
		}
		l.issueRacy()
	}
}

// respond completes the pending operation after delay cycles, delivering
// resp through an actor event so that delivery does not allocate.
//
//cbsim:hotpath
func (l *L1) respond(delay uint64, resp memtypes.Response) {
	if l.respTo != nil {
		panic(fmt.Sprintf("vips: core %d completed an operation while a response is in flight", l.id))
	}
	l.resp, l.respTo = resp, l.pending.done
	l.pending = pendingOp{}
	l.k.ScheduleActor(delay, l, nil, 0)
}

// Act implements sim.Actor: it delivers the response respond scheduled.
//
//cbsim:hotpath
func (l *L1) Act(any, uint64) {
	to := l.respTo
	l.respTo = nil
	to.Complete(l.resp)
}

// accessDRF handles cached loads and stores.
//
//cbsim:hotpath
func (l *L1) accessDRF() {
	req := l.pending.req
	l.stats.Accesses++
	if line := l.arr.Lookup(req.Addr); line != nil {
		l.stats.Hits++
		l.finishDRF(line, mem.DefaultL1Latency)
		return
	}
	l.stats.Misses++
	msg := l.mesh.NewMessage()
	*msg = memtypes.Message{
		Src: l.id, Dst: l.bankOf(req.Addr), Kind: MsgGetLine,
		Class: memtypes.ClassControl, Addr: req.Addr.Line(),
		Core: l.id, Req: req,
	}
	l.mesh.Send(msg)
	l.obs.Open(l.id, l.k.Now(), uint64(cycles.CatNoC))
}

// finishDRF applies the pending DRF op to a resident line and responds.
//
//cbsim:hotpath
func (l *L1) finishDRF(line *cache.Line[l1Line], delay uint64) {
	req := l.pending.req
	w := req.Addr.WordIndex()
	resp := memtypes.Response{Hit: true}
	switch req.Kind {
	case memtypes.OpRead:
		resp.Value = line.State.data[w]
	case memtypes.OpWrite:
		line.State.data[w] = req.Value
		line.State.dirty[w] = true
	default:
		panic("vips: finishDRF on non-DRF op")
	}
	l.respond(delay, resp)
}

// handleDataLine installs a fill and completes the pending DRF miss.
func (l *L1) handleDataLine(msg *memtypes.Message) {
	if l.pending.req == nil || l.pending.req.Addr.Line() != msg.Addr {
		panic(fmt.Sprintf("vips: core %d unexpected fill for %s", l.id, msg.Addr))
	}
	l.obs.Close(l.id, l.k.Now())
	l.evictFor(msg.Addr)
	if l.arr.Victim(msg.Addr).Valid {
		panic("vips: victim not cleaned before allocate")
	}
	line := l.arr.Allocate(msg.Addr)
	line.State.data = msg.LineData
	line.State.private = l.pending.req.Private
	l.mesh.Free(msg)
	l.finishDRF(line, mem.DefaultL1Latency)
}

// evictFor writes back and drops the victim line for a fill of addr, if
// the set is full. Eviction write-throughs complete in the background;
// only fences wait for them (via wtOutstanding).
func (l *L1) evictFor(addr memtypes.Addr) {
	v := l.arr.Victim(addr)
	if !v.Valid {
		return
	}
	if v.State.anyDirty() {
		l.writeThrough(v)
	}
	l.arr.Invalidate(v.Addr)
}

// writeThrough sends a line's dirty words to its bank and clears the
// dirty bits.
func (l *L1) writeThrough(line *cache.Line[l1Line]) {
	msg := l.mesh.NewMessage()
	*msg = memtypes.Message{
		Src: l.id, Dst: l.bankOf(line.Addr), Kind: MsgWTLine,
		Class: memtypes.ClassWordData, Addr: line.Addr, Core: l.id,
	}
	words := 0
	for i, d := range line.State.dirty {
		if d {
			msg.LineData[i] = line.State.data[i]
			msg.Mask[i] = true
			words++
			line.State.dirty[i] = false
		}
	}
	msg.Words = words
	l.stats.WriteThroughs++
	l.wtOutstanding++
	l.mesh.Send(msg)
}

// fence executes self_down (invl=false) or self_invl (invl=true).
func (l *L1) fence(invl bool) {
	l.stats.SelfDowns++
	// Self-downgrade: write through every dirty non-private line.
	l.arr.ForEach(func(line *cache.Line[l1Line]) {
		if line.State.private {
			return
		}
		if line.State.anyDirty() {
			l.writeThrough(line)
		}
	})
	l.pending.fence = true
	l.pending.invlAfter = invl
	if l.wtOutstanding == 0 {
		l.completeFence()
	}
}

// completeFence runs after every outstanding write-through is acked.
func (l *L1) completeFence() {
	if l.pending.invlAfter {
		l.arr.ForEach(func(line *cache.Line[l1Line]) {
			if line.State.private {
				return
			}
			if line.State.anyDirty() {
				panic("vips: dirty line at self-invalidation")
			}
			line.Valid = false
			l.stats.SelfInvls++
		})
	}
	l.respond(mem.DefaultL1Latency, memtypes.Response{})
}

func (l *L1) handleWTAck(msg *memtypes.Message) {
	if l.wtOutstanding == 0 {
		panic(fmt.Sprintf("vips: core %d spurious write-through ack", l.id))
	}
	l.mesh.Free(msg)
	l.wtOutstanding--
	if l.wtOutstanding == 0 && l.pending.fence {
		l.completeFence()
	}
}

// issueRacy forwards a racy operation to the owning LLC bank, bypassing
// the L1 array.
//
//cbsim:hotpath
func (l *L1) issueRacy() {
	l.stats.RacyOps++
	l.mesh.Send(l.racyMessage(l.pending.req))
	l.obs.Open(l.id, l.k.Now(), uint64(cycles.CatNoC))
}

// racyMessage builds the message carrying racy operation req to its
// bank.
//
//cbsim:hotpath
func (l *L1) racyMessage(req *memtypes.Request) *memtypes.Message {
	class := memtypes.ClassControl
	switch req.Kind {
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0, memtypes.OpRMW:
		class = memtypes.ClassWordData
	}
	msg := l.mesh.NewMessage()
	*msg = memtypes.Message{
		Src: l.id, Dst: l.bankOf(req.Addr), Kind: MsgRacy,
		Class: class, Addr: req.Addr, Core: l.id, Req: req,
	}
	return msg
}

// handleRacyResp completes the outstanding racy operation. The core
// reuses one Request for all its operations, so the response's echoed
// serial, not its request pointer, proves it answers this operation.
//
//cbsim:hotpath
func (l *L1) handleRacyResp(msg *memtypes.Message) {
	if l.pending.req == nil {
		panic(fmt.Sprintf("vips: core %d racy response with no pending op", l.id))
	}
	l.obs.Close(l.id, l.k.Now())
	if msg.Serial != l.pending.req.Serial {
		panic(fmt.Sprintf("vips: core %d racy response for op %d does not match pending %s op %d",
			l.id, msg.Serial, l.pending.req.Kind, l.pending.req.Serial))
	}
	req := l.pending.req
	// Keep a resident copy of the word fresh: racy results are at least
	// as new as any cached value, and the line stays clean (the LLC
	// already has the data).
	if line := l.arr.Peek(req.Addr); line != nil {
		w := req.Addr.WordIndex()
		switch req.Kind {
		case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
			line.State.data[w] = req.Value
		case memtypes.OpReadThrough, memtypes.OpReadCB:
			line.State.data[w] = msg.Value
		}
	}
	resp := memtypes.Response{Value: msg.Value, Stale: msg.Stale}
	l.lastRacy = msg.Value
	l.mesh.Free(msg)
	l.respond(0, resp)
}

// Spin parking. A back-off loop of ld_through on a line homed on the
// core's own tile never touches the mesh: each iteration is the issue,
// the request's delivery to the bank one cycle later, the bank's load an
// LLC hit later, the response's delivery one cycle after that, and the
// L1's response in the same cycle. While the bank is idle, nothing but a
// message delivered to the tile can change the line's value, so every
// iteration answers as the last did and the core may park the loop. The
// next message delivered to the tile wakes it, before it is handled; no
// wake lands on the L1's response (see SpinResume).

// spinSeenKinds are the kinds an own-bank spin iteration emits, but for
// the back-off wait, which the core settles in bulk. While one is
// wanted the loop stays simulated.
var spinSeenKinds = trace.Of(trace.EvExec, trace.EvStallBegin, trace.EvStallEnd,
	trace.EvOpen, trace.EvClose, trace.EvSpan, trace.EvNoCSend, trace.EvNoCDeliver)

// Park implements memtypes.SpinPort: an ld_through of a line homed on
// this tile parks when its value is the one the last racy response
// carried, its line is resident in the LLC (so the load hits), the bank
// holds no line lock and queues nothing, it has neither a callback
// directory nor fault injection, and no observer wants the iteration's
// events.
//
//cbsim:hotpath
func (l *L1) Park(req *memtypes.Request, s memtypes.Spinner) (sim.GhostCycle, bool) {
	t := l.tile
	if req.Kind != memtypes.OpReadThrough || t == nil {
		return sim.GhostCycle{}, false
	}
	b := t.Bank
	if b.cbdir != nil || b.chaos != nil || len(b.busy) != 0 || !b.deferq.Empty() ||
		l.obs.Wants(spinSeenKinds) || b.obs.Wants(spinSeenKinds) || l.mesh.Observes(spinSeenKinds) ||
		l.bankOf(req.Addr) != l.id || b.store.Load(req.Addr) != l.lastRacy || !b.data.Present(req.Addr) {
		return sim.GhostCycle{}, false
	}
	t.spinner = s
	const hop = noc.DefaultLocalLatency
	return sim.GhostCycle{Delays: [sim.MaxGhostPhases]uint64{hop, b.data.DataLatency, hop, 0}, Len: 4}, true
}

// Spin phases of an own-bank ld_through (see Park).
const (
	spinIssue   = iota // the core's issue: the L1 forwards the request
	spinRacy           // its delivery: the bank locks the line and reads the LLC
	spinLoad           // the bank's load: it responds and unlocks the line
	spinResp           // the response's delivery at the L1
	spinRespond        // the L1's response to the core
)

// SpinEvents implements memtypes.SpinPort: it books n skipped events of
// phase p, exactly as the events would have: the L1's racy operations at
// the issue, and at the request's delivery the bank's racy reads and LLC
// hits (counters, LRU clock and stamp).
//
//cbsim:hotpath
func (l *L1) SpinEvents(req *memtypes.Request, p int, n, _, _ uint64) {
	switch p {
	case spinIssue:
		l.stats.RacyOps += n
	case spinRacy:
		b := l.tile.Bank
		b.stats.RacyReads += n
		b.data.CreditHits(req.Addr, n, true, req.PhaseKind())
	}
}

// SpinResume implements memtypes.SpinPort: it schedules, in place of g's
// pending event, event p of the skipped iteration, rebuilding what the
// events before it left: the L1's pending operation, the request or
// response message in flight, or the bank's line lock.
//
// A wake never lands on the L1's response (spinRespond), which fires in
// the cycle of the response's delivery and is scheduled by it. A trace
// attach or a digest wakes the loop at a cycle boundary, where both have
// fired or neither. A message from another tile is scheduled at least a
// switch latency before its delivery, and one from this tile was sent
// before the loop parked (nothing on the tile runs while it is parked),
// so either is delivered before both.
//
//cbsim:hotpath
func (l *L1) SpinResume(req *memtypes.Request, p int, done memtypes.Completer, g *sim.Ghost) {
	b := l.tile.Bank
	l.pending = pendingOp{req: req, done: done}
	switch p {
	case spinRacy:
		l.k.WakeGhost(g, l.mesh, l.racyMessage(req), uint64(l.id))
	case spinLoad:
		b.busy = append(b.busy, req.Addr.Line())
		l.k.WakeGhost(g, b, l.racyMessage(req), stageLoad)
	case spinResp:
		resp := l.mesh.NewMessage()
		*resp = memtypes.Message{
			Src: l.id, Dst: l.id, Kind: MsgRacyResp,
			Class: memtypes.ClassWordData, Addr: req.Addr,
			Core: l.id, Value: b.store.Load(req.Addr), Req: req,
			Serial: req.Serial,
		}
		l.k.WakeGhost(g, l.mesh, resp, uint64(l.id))
	default:
		panic(fmt.Sprintf("vips: core %d resumed a spin at phase %d", l.id, p))
	}
}

// Deliver routes bank-to-L1 messages.
func (l *L1) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgDataLine:
		l.handleDataLine(msg)
	case MsgWTAck:
		l.handleWTAck(msg)
	case MsgRacyResp:
		l.handleRacyResp(msg)
	default:
		panic(fmt.Sprintf("vips: L1 %d cannot handle %s", l.id, msg))
	}
}
