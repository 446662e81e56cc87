// Package noc models the on-chip interconnect: a 2-dimensional mesh with
// deterministic X-Y routing, matching the GARNET configuration in Table 2
// of the paper (8x8 mesh, 16-byte flits, 6-cycle switch-to-switch time).
//
// Messages are forwarded hop by hop. Each directional link serializes the
// flits of a message (one flit per cycle), so back-to-back messages on hot
// links queue up — the contention that makes invalidation storms and LLC
// spinning expensive. Traffic is accounted in flit-hops, the same unit
// GARNET reports.
package noc

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/memtypes"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Default timing parameters (Table 2).
const (
	DefaultSwitchLatency = 6 // cycles per switch-to-switch hop
	DefaultLocalLatency  = 1 // cycles for a message that stays on-tile
)

// Handler consumes messages delivered to a node.
type Handler interface {
	Deliver(msg *memtypes.Message)
}

// An Incomer is a Handler that hears of every message sent to its node
// before the mesh schedules anything for it (the MESI tile wakes a core
// parked in a spin loop on its L1 there).
type Incomer interface {
	Handler
	Incoming(msg *memtypes.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*memtypes.Message)

// Deliver calls f(msg).
func (f HandlerFunc) Deliver(msg *memtypes.Message) { f(msg) }

type direction int

const (
	dirEast direction = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// Stats accumulates network traffic counters.
type Stats struct {
	Messages uint64 // messages injected
	Flits    uint64 // flits injected (message sizes)
	FlitHops uint64 // flits x hops traversed: the traffic metric
	Hops     uint64 // message-hops traversed
	LinkWait uint64 // cycles messages spent waiting for busy links
}

// Mesh is a width x height 2D mesh network.
type Mesh struct {
	k             *sim.Kernel
	width, height int
	//cbvet:ephemeral configuration fixed at wiring time, never changed mid-run
	switchLat uint64
	localLat  uint64
	// handlers holds the per-node delivery endpoints installed by
	// Attach during machine wiring.
	//cbvet:ephemeral wiring: delivery endpoints attached at construction
	handlers []Handler
	// incoming holds the handlers that are Incomers (nil elsewhere).
	//cbvet:ephemeral wiring: installed by Attach at construction
	incoming []Incomer
	// route[at*nodes+dst] is the direction of the X-Y hop out of node at
	// toward dst, and step[dir] the node-number offset of that hop:
	// routing a hop costs two loads instead of four divisions.
	//cbvet:ephemeral geometry fixed at construction, never changed mid-run
	route []uint8
	//cbvet:ephemeral geometry fixed at construction, never changed mid-run
	step [numDirs]memtypes.NodeID
	// linkFree[node][dir] is the first cycle the outgoing link of node
	// in direction dir is idle.
	linkFree [][numDirs]uint64
	// linkBusy[node][dir] accumulates the cycles the link spent
	// serializing flits (for end-of-run utilization reporting).
	linkBusy [][numDirs]uint64
	stats    Stats

	// pool recycles Messages: senders allocate with NewMessage and the
	// final consumer returns them with Free, so steady-state traffic
	// performs no heap allocations.
	pool memtypes.MsgPool

	// obs receives EvNoCSend and EvNoCDeliver per message (observational
	// only).
	obs trace.Hook

	// ideal disables link contention and serialization: messages
	// arrive after pure distance latency (ablation mode).
	//cbvet:ephemeral ablation configuration fixed at wiring time, never changed mid-run
	ideal bool

	// chaos, when non-nil, injects per-message send delays and per-hop
	// jitter (fault injection; nil on the default path).
	//cbvet:ephemeral wiring pointer installed at construction; chaos-engine state is deliberately excluded from digests (see machine/digest.go)
	chaos *chaos.Engine
	// chaosFloor keeps chaos-perturbed times monotone where the real
	// network is FIFO: links (and per-node injection/local delivery)
	// must not reorder the messages they carry — the coherence
	// protocols assume point-to-point order, and jitter that swapped
	// two messages on one link would inject a fault no mesh can
	// produce. Delays still reorder traffic across different routes.
	// Indexed like linkFree, with two extra virtual directions per
	// node: injection into the network and local (src==dst) delivery.
	//cbvet:ephemeral deliberately excluded from digests so a chaos run does not digest-diverge from a fault-free twin before any fault lands (see digest.go)
	chaosFloor [][numDirs + 2]uint64

	// live counts messages handed out by NewMessage and not yet
	// returned with Free. It must be zero once the machine quiesces:
	// a positive residue is a leaked message, a negative one a double
	// free (message conservation, checked by machine.CheckInvariants).
	live int

	// dbg carries the double-free guard state; it is an empty struct
	// unless built with -tags cbsimdebug (see mesh_debug.go).
	dbg meshDebug
}

// New builds a width x height mesh on kernel k with default latencies.
func New(k *sim.Kernel, width, height int) *Mesh {
	if width <= 0 || height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	n := width * height
	m := &Mesh{
		k:         k,
		width:     width,
		height:    height,
		switchLat: DefaultSwitchLatency,
		localLat:  DefaultLocalLatency,
		handlers:  make([]Handler, n),
		incoming:  make([]Incomer, n),
		route:     make([]uint8, n*n),
		step:      [numDirs]memtypes.NodeID{dirEast: 1, dirWest: -1, dirNorth: memtypes.NodeID(-width), dirSouth: memtypes.NodeID(width)},
		linkFree:  make([][numDirs]uint64, n),
		linkBusy:  make([][numDirs]uint64, n),
	}
	// Node y*width+x is at (x, y); route[at*n:] runs over the
	// destinations in the same order.
	next := m.route
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			for dy := 0; dy < height; dy++ {
				for dx := 0; dx < width; dx++ {
					var dir direction
					switch {
					// Deterministic X-Y routing: fully resolve X before moving in Y.
					case dx > x:
						dir = dirEast
					case dx < x:
						dir = dirWest
					case dy > y:
						dir = dirSouth
					default:
						dir = dirNorth
					}
					next[0] = uint8(dir)
					next = next[1:]
				}
			}
		}
	}
	return m
}

// SetSwitchLatency overrides the per-hop switch latency.
func (m *Mesh) SetSwitchLatency(cycles uint64) { m.switchLat = cycles }

// SetIdeal toggles contentionless mode: no link serialization or
// queueing, pure hops x switch latency. Traffic is still accounted in
// flit-hops. Used to check that conclusions are not artifacts of the
// contention model.
func (m *Mesh) SetIdeal(v bool) { m.ideal = v }

// SetChaos installs a fault-injection engine: messages may be held back
// at their source (opening reordering windows across routes) and every
// hop may pick up jitter, while each link stays FIFO. nil disables
// injection.
func (m *Mesh) SetChaos(e *chaos.Engine) {
	m.chaos = e
	if e != nil && m.chaosFloor == nil {
		m.chaosFloor = make([][numDirs + 2]uint64, m.width*m.height)
	}
}

// Virtual chaosFloor slots beyond the four link directions.
const (
	floorInject = int(numDirs)     // entry of a message into the network at its source
	floorLocal  = int(numDirs) + 1 // delivery of a src==dst message
)

// chaosClamp returns t raised to the floor of the given FIFO domain and
// records it, so successive events in that domain never reorder.
func (m *Mesh) chaosClamp(node memtypes.NodeID, slot int, t uint64) uint64 {
	if f := m.chaosFloor[node][slot]; t < f {
		t = f
	}
	m.chaosFloor[node][slot] = t
	return t
}

// LiveMessages reports how many pool messages are currently in flight
// (allocated by NewMessage, not yet Freed). Negative means a double free
// slipped past the cbsimdebug guard.
func (m *Mesh) LiveMessages() int { return m.live }

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.width * m.height }

// Attach registers the message handler for node n. A handler that is
// an Incomer also hears of each message at its Send.
func (m *Mesh) Attach(n memtypes.NodeID, h Handler) {
	m.handlers[m.check(n)] = h
	m.incoming[n], _ = h.(Incomer)
}

// Stats returns a copy of the accumulated traffic counters.
func (m *Mesh) Stats() Stats { return m.stats }

// SetObserver installs the hook the mesh emits the given kinds to: an
// EvNoCSend at the injection and an EvNoCDeliver at the arrival of every
// message.
func (m *Mesh) SetObserver(fn func(trace.Event), kinds trace.Mask) { m.obs.Set(fn, kinds) }

// Observes reports whether the mesh's observer wants any kind of k.
func (m *Mesh) Observes(k trace.Mask) bool { return m.obs.Wants(k) }

// LocalLatency reports the cycles a message to its own node takes.
func (m *Mesh) LocalLatency() uint64 { return m.localLat }

// ResetStats zeroes the traffic counters (used to scope measurement to a
// parallel section).
func (m *Mesh) ResetStats() {
	m.stats = Stats{}
	for i := range m.linkBusy {
		m.linkBusy[i] = [numDirs]uint64{}
	}
}

// VisitLinkBusy calls fn once per physically present directional link
// with the cycles that link spent serializing flits — including links
// that stayed idle. Used for end-of-run utilization histograms (busy /
// run cycles per link).
func (m *Mesh) VisitLinkBusy(fn func(node memtypes.NodeID, busy uint64)) {
	for n := range m.linkBusy {
		x, y := m.coords(memtypes.NodeID(n))
		for d := direction(0); d < numDirs; d++ {
			switch d {
			case dirEast:
				if x == m.width-1 {
					continue
				}
			case dirWest:
				if x == 0 {
					continue
				}
			case dirSouth:
				if y == m.height-1 {
					continue
				}
			case dirNorth:
				if y == 0 {
					continue
				}
			}
			fn(memtypes.NodeID(n), m.linkBusy[n][d])
		}
	}
}

// NewMessage returns a zeroed message from the mesh's free list. Senders
// fill it and pass it to Send; the node that finally consumes it returns
// it with Free.
//
//cbsim:hotpath
func (m *Mesh) NewMessage() *memtypes.Message {
	m.live++
	return m.getMessage()
}

// Free recycles a message once its final consumer is done with it. The
// caller must not retain msg (or schedule work referencing it) afterwards:
// the pool may reissue it to any later sender. Builds with -tags
// cbsimdebug panic on a double Free and poison freed messages so stale
// readers fail loudly instead of silently corrupting protocol state.
func (m *Mesh) Free(msg *memtypes.Message) {
	m.live--
	m.putMessage(msg)
}

func (m *Mesh) check(n memtypes.NodeID) int {
	if int(n) < 0 || int(n) >= len(m.handlers) {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", n, len(m.handlers)))
	}
	return int(n)
}

func (m *Mesh) coords(n memtypes.NodeID) (x, y int) {
	return int(n) % m.width, int(n) / m.width
}

// HopCount returns the number of switch-to-switch hops between two nodes
// under X-Y routing (the Manhattan distance).
func (m *Mesh) HopCount(src, dst memtypes.NodeID) int {
	sx, sy := m.coords(src)
	dx, dy := m.coords(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Send injects msg into the network. The destination handler's Deliver is
// invoked when the message arrives; an Incomer destination hears of it
// first, before anything is scheduled. Sends to the local node bypass
// the network with a fixed small latency and are not counted as traffic.
//
//cbsim:hotpath
func (m *Mesh) Send(msg *memtypes.Message) {
	m.check(msg.Src)
	if in := m.incoming[m.check(msg.Dst)]; in != nil {
		in.Incoming(msg)
	}
	if m.obs.On(trace.EvNoCSend) {
		m.emit(trace.EvNoCSend, msg)
	}
	// Chaos holds the message at its source for delay extra cycles:
	// the mesh itself is the actor, so the held message re-enters the
	// network at its source node without any closure allocation. The
	// clamps keep each FIFO domain (injection, links, local delivery)
	// in order; see chaosFloor.
	var delay uint64
	if m.chaos != nil {
		delay = m.chaos.SendDelay()
	}
	if msg.Src == msg.Dst {
		if m.chaos != nil {
			t := m.chaosClamp(msg.Dst, floorLocal, m.k.Now()+m.localLat+delay)
			m.k.AtActor(t, m, msg, uint64(msg.Dst))
			return
		}
		m.k.ScheduleActor(m.localLat, m, msg, uint64(msg.Dst))
		return
	}
	m.stats.Messages++
	m.stats.Flits += uint64(msg.Flits())
	if m.ideal {
		hops := uint64(m.HopCount(msg.Src, msg.Dst))
		m.stats.FlitHops += uint64(msg.Flits()) * hops
		m.stats.Hops += hops
		if m.chaos != nil {
			t := m.chaosClamp(msg.Dst, floorLocal, m.k.Now()+hops*m.switchLat+delay)
			m.k.AtActor(t, m, msg, uint64(msg.Dst))
			return
		}
		m.k.ScheduleActor(hops*m.switchLat, m, msg, uint64(msg.Dst))
		return
	}
	if m.chaos != nil {
		if t := m.chaosClamp(msg.Src, floorInject, m.k.Now()+delay); t > m.k.Now() {
			m.k.AtActor(t, m, msg, uint64(msg.Src))
			return
		}
	}
	m.hop(msg, msg.Src)
}

// Act implements sim.Actor: it resumes a message at node arg, either
// forwarding it one more hop or delivering it. Scheduling the mesh itself
// as the actor (with the message as payload) makes per-hop routing free of
// closure allocations.
//
//cbsim:hotpath
func (m *Mesh) Act(data any, arg uint64) {
	m.hop(data.(*memtypes.Message), memtypes.NodeID(arg))
}

// hop routes msg one step from node at, scheduling the arrival at the next
// router (or the final delivery).
//
//cbsim:hotpath
func (m *Mesh) hop(msg *memtypes.Message, at memtypes.NodeID) {
	if at == msg.Dst {
		m.deliver(msg)
		return
	}
	dir := direction(m.route[int(at)*len(m.handlers)+int(msg.Dst)])
	next := at + m.step[dir]

	flits := uint64(msg.Flits())
	now := m.k.Now()
	free := m.linkFree[at][dir]
	depart := now
	if free > now {
		depart = free
		m.stats.LinkWait += free - now
	}
	// The link is busy while the message's flits serialize onto it.
	m.linkFree[at][dir] = depart + flits
	m.linkBusy[at][dir] += flits
	m.stats.FlitHops += flits
	m.stats.Hops++

	arrive := depart + m.switchLat
	if m.chaos != nil {
		arrive = m.chaosClamp(at, int(dir), arrive+m.chaos.HopJitter())
	}
	m.k.AtActor(arrive, m, msg, uint64(next))
}

//cbsim:hotpath
func (m *Mesh) deliver(msg *memtypes.Message) {
	if m.obs.On(trace.EvNoCDeliver) {
		m.emit(trace.EvNoCDeliver, msg)
	}
	h := m.handlers[msg.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler attached to node %d for %s", msg.Dst, msg))
	}
	h.Deliver(msg)
}

// emit reports msg's send or delivery: the event carries the message's
// route, kind and class as numbers, never msg itself, which the pool
// recycles. Callers test the kind first, keeping the unobserved path to
// one bit test.
//
//cbsim:hotpath
func (m *Mesh) emit(k trace.Kind, msg *memtypes.Message) {
	m.obs.Emit(trace.Event{Kind: k, Core: msg.Core, Cycle: m.k.Now(), Addr: msg.Addr,
		A: uint64(msg.Src)<<32 | uint64(msg.Dst),
		B: uint64(msg.Kind)<<8 | uint64(msg.Class)})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
