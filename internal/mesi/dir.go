package mesi

import (
	"fmt"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DirStats counts directory activity.
type DirStats struct {
	GetS       uint64
	GetX       uint64
	InvsSent   uint64
	Forwards   uint64
	Writebacks uint64
	Deferred   uint64 // requests queued behind a busy line
	EGrants    uint64 // DataE responses
}

// dirLine is the directory state for one line: an owner pointer (E or M
// copy) or a sharer bit-vector. Lines absent from the map are uncached.
type dirLine struct {
	owner   int // node holding E/M, -1 if none
	sharers uint64
}

// trans is an in-flight directory transaction holding the line busy.
// When the forward or the acks it waits for have arrived, the line takes
// owner and sharers and req, the requester's message, is granted a data
// response of kind grant (see finish). req is nil when nothing waits.
type trans struct {
	acksPending int
	req         *memtypes.Message
	grant       memtypes.MsgKind
	owner       int
	sharers     uint64
}

// Dir is one LLC bank's directory controller. The directory state itself
// is unbounded (a full map); the bank's data array only decides whether
// an access pays the memory latency. Directory capacity effects are
// outside the paper's scope.
type Dir struct {
	k     *sim.Kernel
	id    memtypes.NodeID
	mesh  *noc.Mesh
	store *mem.Store
	data  *mem.Bank

	lines  map[memtypes.Addr]*dirLine
	busy   map[memtypes.Addr]*trans
	deferq memtypes.LineQueues // requests waiting for a busy line

	// spareT recycles finished transactions.
	//cbvet:ephemeral recycled transaction records; they hold no state
	spareT []*trans

	// chaos, when non-nil, jitters LLC bank access latencies (fault
	// injection; nil on the default path).
	//cbvet:ephemeral wiring pointer installed at construction; chaos-engine state is deliberately excluded from digests (see machine/digest.go)
	chaos *chaos.Engine

	// obs receives cycle-accounting legs of requester cores' in-flight
	// misses (observational only).
	obs trace.Hook

	stats DirStats
}

// SetChaos installs a fault-injection engine on the directory bank (nil
// disables injection).
func (d *Dir) SetChaos(e *chaos.Engine) { d.chaos = e }

// accessLat returns the LLC access latency for addr, plus chaos jitter.
func (d *Dir) accessLat(addr memtypes.Addr, needData bool, syncKind uint8) uint64 {
	lat := d.data.Access(addr, needData, syncKind)
	if d.chaos != nil {
		lat += d.chaos.LLCJitter()
	}
	return lat
}

// NewDir builds the directory bank for node id.
func NewDir(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store) *Dir {
	return &Dir{
		k: k, id: id, mesh: mesh, store: store,
		data:  mem.NewBank(),
		lines: make(map[memtypes.Addr]*dirLine),
		busy:  make(map[memtypes.Addr]*trans),
	}
}

// Stats returns the directory counters.
func (d *Dir) Stats() DirStats { return d.stats }

// DataStats returns the LLC access counters.
func (d *Dir) DataStats() mem.BankStats { return d.data.Stats() }

// Sharers reports the sharer count and owner for a line (tests).
func (d *Dir) Sharers(addr memtypes.Addr) (sharers int, owner int) {
	l := d.line(addr)
	return bits.OnesCount64(l.sharers), l.owner
}

func (d *Dir) line(addr memtypes.Addr) *dirLine {
	line := addr.Line()
	l, ok := d.lines[line]
	if !ok {
		l = &dirLine{owner: -1}
		d.lines[line] = l
	}
	return l
}

// admit dispatches msg now if its line is idle, otherwise defers it.
//
//cbsim:hotpath
func (d *Dir) admit(msg *memtypes.Message) {
	line := msg.Addr.Line()
	if d.busy[line] != nil {
		d.stats.Deferred++
		d.deferq.Push(line, msg)
		return
	}
	d.dispatch(msg)
}

// dispatch runs an admitted request.
//
//cbsim:hotpath
func (d *Dir) dispatch(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS:
		d.handleGetS(msg)
	case MsgGetX:
		d.handleGetX(msg)
	default:
		d.handlePut(msg)
	}
}

// begin marks the line busy for a multi-message transaction.
//
//cbsim:hotpath
func (d *Dir) begin(addr memtypes.Addr) *trans {
	line := addr.Line()
	if d.busy[line] != nil {
		panic(fmt.Sprintf("mesi: dir %d transaction overlap on %s", d.id, line))
	}
	var t *trans
	if n := len(d.spareT); n > 0 {
		t = d.spareT[n-1]
		d.spareT = d.spareT[:n-1]
	} else {
		//cbvet:alloc-ok pool growth; steady state reuses finished transactions
		t = &trans{}
	}
	d.busy[line] = t
	return t
}

// end completes the line's transaction and replays one deferred request.
//
//cbsim:hotpath
func (d *Dir) end(addr memtypes.Addr) {
	line := addr.Line()
	t := d.busy[line]
	if t == nil {
		panic(fmt.Sprintf("mesi: dir %d ending idle line %s", d.id, line))
	}
	delete(d.busy, line)
	*t = trans{}
	d.spareT = append(d.spareT, t)
	if next := d.deferq.Pop(line); next != nil {
		d.dispatch(next)
	}
}

// SetObserver installs the hook the directory emits the given kinds to.
func (d *Dir) SetObserver(fn func(trace.Event), kinds trace.Mask) { d.obs.Set(fn, kinds) }

// cycArrive closes the requester's NoC leg when its request reaches the
// directory and, if the line is busy (the request will be deferred),
// opens a coherence leg covering the wait behind the in-flight
// transaction.
func (d *Dir) cycArrive(msg *memtypes.Message) {
	d.obs.Close(msg.Core, d.k.Now())
	if d.busy[msg.Addr.Line()] != nil {
		d.obs.Open(msg.Core, d.k.Now(), uint64(cycles.CatCoherenceStall))
	}
}

// Deliver routes L1-to-directory messages.
func (d *Dir) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS:
		d.cycArrive(msg)
		d.admit(msg)
	case MsgGetX:
		d.cycArrive(msg)
		d.admit(msg)
	case MsgPutM, MsgPutE:
		d.admit(msg)
	case MsgInvAck:
		d.handleInvAck(msg)
	case MsgDataWB:
		d.handleDataWB(msg)
	default:
		panic(fmt.Sprintf("mesi: dir %d cannot handle %s", d.id, msg))
	}
}

// grant sends a data response of the given kind after an LLC access:
// it is the terminal step of every GetS/GetX transaction. The delayed
// half runs as the directory's actor event (Act).
//
//cbsim:hotpath
func (d *Dir) grant(msg *memtypes.Message, kind memtypes.MsgKind) {
	lat := d.accessLat(msg.Addr, true, msg.Req.PhaseKind())
	d.obs.Span(msg.Core, d.k.Now(), d.k.Now()+lat, uint64(cycles.CatLLCStall))
	d.k.ScheduleActor(lat, d, msg, uint64(kind))
}

// Act implements sim.Actor: the delayed half of grant. It sends the data
// response (kind is the event arg), ends the line's transaction and
// recycles the request message.
//
//cbsim:hotpath
func (d *Dir) Act(data any, kind uint64) {
	msg := data.(*memtypes.Message)
	out := d.mesh.NewMessage()
	*out = memtypes.Message{
		Src: d.id, Dst: msg.Src, Kind: memtypes.MsgKind(kind),
		Class: memtypes.ClassLineData, Addr: msg.Addr, Core: msg.Core,
		LineData: d.store.LoadLine(msg.Addr),
	}
	d.mesh.Send(out)
	d.obs.Open(out.Core, d.k.Now(), uint64(cycles.CatNoC))
	d.end(msg.Addr)
	d.mesh.Free(msg)
}

// finish runs a transaction's continuation once its forward or acks have
// arrived: the line takes its new owner and sharers, and the requester is
// granted.
//
//cbsim:hotpath
func (d *Dir) finish(t *trans) {
	msg := t.req
	t.req = nil
	d.obs.Close(msg.Core, d.k.Now())
	l := d.line(msg.Addr)
	l.owner, l.sharers = t.owner, t.sharers
	d.grant(msg, t.grant)
}

func (d *Dir) handleGetS(msg *memtypes.Message) {
	d.stats.GetS++
	d.obs.Close(msg.Core, d.k.Now()) // a replayed request's deferral leg
	l := d.line(msg.Addr)
	r := int(msg.Src)
	if l.owner >= 0 {
		// Forward to the owner; it downgrades to S and returns data.
		t := d.begin(msg.Addr)
		d.stats.Forwards++
		owner := l.owner
		fwd := d.mesh.NewMessage()
		*fwd = memtypes.Message{
			Src: d.id, Dst: memtypes.NodeID(owner), Kind: MsgFwdGetS,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		}
		d.mesh.Send(fwd)
		// The owner round trip is coherence work.
		d.obs.Open(msg.Core, d.k.Now(), uint64(cycles.CatCoherenceStall))
		t.req, t.grant = msg, MsgDataS
		t.owner, t.sharers = -1, 1<<uint(owner)|1<<uint(r)
		return
	}
	d.begin(msg.Addr)
	if l.sharers == 0 {
		// No copies: grant clean-exclusive.
		d.stats.EGrants++
		l.owner = r
		d.grant(msg, MsgDataE)
		return
	}
	l.sharers |= 1 << uint(r)
	d.grant(msg, MsgDataS)
}

func (d *Dir) handleGetX(msg *memtypes.Message) {
	d.stats.GetX++
	d.obs.Close(msg.Core, d.k.Now()) // a replayed request's deferral leg
	l := d.line(msg.Addr)
	r := int(msg.Src)
	if l.owner >= 0 && l.owner != r {
		// Forward to the owner; it invalidates and returns data.
		t := d.begin(msg.Addr)
		d.stats.Forwards++
		fwd := d.mesh.NewMessage()
		*fwd = memtypes.Message{
			Src: d.id, Dst: memtypes.NodeID(l.owner), Kind: MsgFwdGetX,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		}
		d.mesh.Send(fwd)
		// The owner round trip is coherence work.
		d.obs.Open(msg.Core, d.k.Now(), uint64(cycles.CatCoherenceStall))
		t.req, t.grant = msg, MsgDataX
		t.owner, t.sharers = r, 0
		return
	}
	toInv := l.sharers &^ (1 << uint(r))
	if l.owner == r {
		// The owner re-requests after an in-flight writeback raced:
		// FIFO ordering means the Put always arrives first, so this
		// indicates a silent refetch; just re-grant.
		toInv = 0
	}
	t := d.begin(msg.Addr)
	if toInv != 0 {
		// Invalidate every other sharer and collect acks here before
		// granting data.
		t.acksPending = bits.OnesCount64(toInv)
		for n := 0; toInv != 0; n++ {
			if toInv&1 != 0 {
				d.stats.InvsSent++
				inv := d.mesh.NewMessage()
				*inv = memtypes.Message{
					Src: d.id, Dst: memtypes.NodeID(n), Kind: MsgInv,
					Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
				}
				d.mesh.Send(inv)
			}
			toInv >>= 1
		}
		// The invalidation round is coherence work.
		d.obs.Open(msg.Core, d.k.Now(), uint64(cycles.CatCoherenceStall))
		t.req, t.grant = msg, MsgDataX
		t.owner, t.sharers = r, 0
		return
	}
	l.owner = r
	l.sharers = 0
	d.grant(msg, MsgDataX)
}

func (d *Dir) handlePut(msg *memtypes.Message) {
	d.stats.Writebacks++
	l := d.line(msg.Addr)
	if l.owner == int(msg.Src) {
		l.owner = -1
		if msg.Kind == MsgPutM {
			// The data array absorbs the writeback. Values are
			// already globally committed (the M copy wrote through
			// to the store at write time), so only latency and
			// presence are modelled here.
			d.data.Access(msg.Addr, true, 0)
		}
	}
	// A Put from a non-owner is stale (the line was forwarded away in
	// the meantime): ack and ignore.
	ack := d.mesh.NewMessage()
	*ack = memtypes.Message{
		Src: d.id, Dst: msg.Src, Kind: MsgWBAck,
		Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
	}
	d.mesh.Free(msg)
	d.mesh.Send(ack)
}

func (d *Dir) handleInvAck(msg *memtypes.Message) {
	t := d.busy[msg.Addr.Line()]
	if t == nil || t.acksPending == 0 {
		panic(fmt.Sprintf("mesi: dir %d spurious InvAck for %s", d.id, msg.Addr))
	}
	d.mesh.Free(msg)
	t.acksPending--
	if t.acksPending == 0 {
		d.finish(t)
	}
}

func (d *Dir) handleDataWB(msg *memtypes.Message) {
	t := d.busy[msg.Addr.Line()]
	if t == nil || t.req == nil {
		panic(fmt.Sprintf("mesi: dir %d spurious DataWB for %s", d.id, msg.Addr))
	}
	d.mesh.Free(msg)
	d.finish(t)
}
