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

// reqSyncKind extracts the synchronization-phase kind of a request (0
// when absent or not synchronizing).
func reqSyncKind(req *memtypes.Request) uint8 {
	if req == nil || !req.Sync {
		return 0
	}
	return req.SyncKind
}

// dirLine is the directory state for one line: an owner pointer (E or M
// copy) or a sharer bit-vector. Lines absent from the map are uncached.
type dirLine struct {
	owner   int // node holding E/M, -1 if none
	sharers uint64
}

// trans is an in-flight directory transaction holding the line busy.
type trans struct {
	acksPending int
	cont        func() // run when forwards/acks complete
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
	deferq map[memtypes.Addr][]func()

	// chaos, when non-nil, jitters LLC bank access latencies (fault
	// injection; nil on the default path).
	//cbvet:ephemeral wiring pointer installed at construction; chaos-engine state is deliberately excluded from digests (see machine/digest.go)
	chaos *chaos.Engine

	// cyc, when set, receives cycle-accounting segments for requester
	// cores' in-flight misses (observational only).
	cyc cycles.Hook

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
		data:   mem.NewBank(),
		lines:  make(map[memtypes.Addr]*dirLine),
		busy:   make(map[memtypes.Addr]*trans),
		deferq: make(map[memtypes.Addr][]func()),
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

// admit runs fn now if the line is idle, otherwise defers it.
func (d *Dir) admit(addr memtypes.Addr, fn func()) {
	line := addr.Line()
	if d.busy[line] != nil {
		d.stats.Deferred++
		d.deferq[line] = append(d.deferq[line], fn)
		return
	}
	fn()
}

// begin marks the line busy for a multi-message transaction.
func (d *Dir) begin(addr memtypes.Addr) *trans {
	line := addr.Line()
	if d.busy[line] != nil {
		panic(fmt.Sprintf("mesi: dir %d transaction overlap on %s", d.id, line))
	}
	t := &trans{}
	d.busy[line] = t
	return t
}

// end completes the line's transaction and replays one deferred request.
func (d *Dir) end(addr memtypes.Addr) {
	line := addr.Line()
	if d.busy[line] == nil {
		panic(fmt.Sprintf("mesi: dir %d ending idle line %s", d.id, line))
	}
	delete(d.busy, line)
	if q := d.deferq[line]; len(q) > 0 {
		next := q[0]
		if len(q) == 1 {
			delete(d.deferq, line)
		} else {
			d.deferq[line] = q[1:]
		}
		next()
	}
}

// SetCyclesObserver installs the cycle-accounting hook (nil disables).
func (d *Dir) SetCyclesObserver(fn cycles.Hook) { d.cyc = fn }

// cycArrive closes the requester's NoC leg when its request reaches the
// directory and, if the line is busy (the request will be deferred),
// opens a coherence leg covering the wait behind the in-flight
// transaction.
func (d *Dir) cycArrive(msg *memtypes.Message) {
	if d.cyc == nil {
		return
	}
	d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
	if d.busy[msg.Addr.Line()] != nil {
		d.cyc(int(msg.Core), cycles.EvOpen, d.k.Now(), uint64(cycles.CatCoherenceStall), 0)
	}
}

// Deliver routes L1-to-directory messages.
func (d *Dir) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS:
		d.cycArrive(msg)
		d.admit(msg.Addr, func() { d.handleGetS(msg) })
	case MsgGetX:
		d.cycArrive(msg)
		d.admit(msg.Addr, func() { d.handleGetX(msg) })
	case MsgPutM, MsgPutE:
		d.admit(msg.Addr, func() { d.handlePut(msg) })
	case MsgInvAck:
		d.handleInvAck(msg)
	case MsgDataWB:
		d.handleDataWB(msg)
	default:
		panic(fmt.Sprintf("mesi: dir %d cannot handle %s", d.id, msg))
	}
}

// grant sends a data response after an LLC access and recycles the
// request message: it is the terminal step of every GetS/GetX
// transaction.
func (d *Dir) grant(msg *memtypes.Message, kind memtypes.MsgKind, done func()) {
	lat := d.accessLat(msg.Addr, true, reqSyncKind(msg.Req))
	if d.cyc != nil {
		d.cyc(int(msg.Core), cycles.EvSpan, d.k.Now(), d.k.Now()+lat,
			uint64(cycles.CatLLCStall))
	}
	d.k.Schedule(lat, func() {
		data := d.mesh.NewMessage()
		*data = memtypes.Message{
			Src: d.id, Dst: msg.Src, Kind: kind,
			Class: memtypes.ClassLineData, Addr: msg.Addr, Core: msg.Core,
			LineData: d.store.LoadLine(msg.Addr),
		}
		d.mesh.Send(data)
		if d.cyc != nil {
			d.cyc(int(data.Core), cycles.EvOpen, d.k.Now(), uint64(cycles.CatNoC), 0)
		}
		if done != nil {
			done()
		}
		d.mesh.Free(msg)
	})
}

func (d *Dir) handleGetS(msg *memtypes.Message) {
	d.stats.GetS++
	if d.cyc != nil { // ends the deferral leg of a replayed request
		d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
	}
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
		if d.cyc != nil { // the owner round trip is coherence work
			d.cyc(int(msg.Core), cycles.EvOpen, d.k.Now(), uint64(cycles.CatCoherenceStall), 0)
		}
		t.cont = func() {
			if d.cyc != nil {
				d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
			}
			l.owner = -1
			l.sharers = 1<<uint(owner) | 1<<uint(r)
			d.grant(msg, MsgDataS, func() { d.end(msg.Addr) })
		}
		return
	}
	d.begin(msg.Addr)
	if l.sharers == 0 {
		// No copies: grant clean-exclusive.
		d.stats.EGrants++
		l.owner = r
		d.grant(msg, MsgDataE, func() { d.end(msg.Addr) })
		return
	}
	l.sharers |= 1 << uint(r)
	d.grant(msg, MsgDataS, func() { d.end(msg.Addr) })
}

func (d *Dir) handleGetX(msg *memtypes.Message) {
	d.stats.GetX++
	if d.cyc != nil { // ends the deferral leg of a replayed request
		d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
	}
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
		if d.cyc != nil { // the owner round trip is coherence work
			d.cyc(int(msg.Core), cycles.EvOpen, d.k.Now(), uint64(cycles.CatCoherenceStall), 0)
		}
		t.cont = func() {
			if d.cyc != nil {
				d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
			}
			l.owner = r
			l.sharers = 0
			d.grant(msg, MsgDataX, func() { d.end(msg.Addr) })
		}
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
		if d.cyc != nil { // the invalidation round is coherence work
			d.cyc(int(msg.Core), cycles.EvOpen, d.k.Now(), uint64(cycles.CatCoherenceStall), 0)
		}
		t.cont = func() {
			if d.cyc != nil {
				d.cyc(int(msg.Core), cycles.EvClose, d.k.Now(), 0, 0)
			}
			l.owner = r
			l.sharers = 0
			d.grant(msg, MsgDataX, func() { d.end(msg.Addr) })
		}
		return
	}
	l.owner = r
	l.sharers = 0
	d.grant(msg, MsgDataX, func() { d.end(msg.Addr) })
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
		t.cont()
	}
}

func (d *Dir) handleDataWB(msg *memtypes.Message) {
	t := d.busy[msg.Addr.Line()]
	if t == nil || t.cont == nil {
		panic(fmt.Sprintf("mesi: dir %d spurious DataWB for %s", d.id, msg.Addr))
	}
	d.mesh.Free(msg)
	cont := t.cont
	t.cont = nil
	cont()
}
