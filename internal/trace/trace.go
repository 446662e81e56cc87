// Package trace is the simulator's one typed event stream. Every
// component that reports what happens during a run — the cores, the
// mesh, the MESI L1s and directories, the VIPS L1s and banks — emits
// Events of one enumerated Kind set through a single SetObserver, and
// every view of a run is a Sink that declares the kinds it reads: the
// Chrome trace writer, the bounded Ring, the MetricsCollector feeding
// obs histograms, cycles.Accumulator and replay's bisect log. Events
// carry numbers only; text is rendered at the edge (Chrome JSON,
// Ring.Dump, Summarize), so emitting allocates nothing.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// Kind enumerates the events components emit. The first seven feed only
// cycle accounting; the rest are the trace kinds, named as they render.
// Each kind fixes the meaning of Event's operands.
type Kind uint8

const (
	// EvExec: the core retired a batch. A = cycles, B = sync kind.
	EvExec Kind = iota
	// EvStallBegin: a memory operation left the core. A = sync kind,
	// B = default cycles.Category for unclaimed parts of the stall.
	EvStallBegin
	// EvStallEnd: its response reached the core.
	EvStallEnd
	// EvDone: the core finished its program.
	EvDone
	// EvOpen: an open-ended leg of the core's stall began (message
	// injected, request deferred, op queued). A = cycles.Category.
	EvOpen
	// EvClose: the open leg ended.
	EvClose
	// EvSpan: a component claims [Cycle, A) of the stall (an L1 or LLC
	// access, a cb-directory consult). B = cycles.Category.
	EvSpan

	// EvNoCSend, EvNoCDeliver ("send", "deliver"): a message entered or
	// left the network. Core = its requester tag, A = src<<32|dst,
	// B = message kind<<8|class.
	EvNoCSend
	EvNoCDeliver
	// EvSyncBegin, EvSyncEnd ("sync.begin", "sync.end"): the core entered
	// or left a sync phase. A = cycles spent (end), B = sync kind.
	EvSyncBegin
	EvSyncEnd
	// EvWait ("spin.wait"): a back-off wait. A = cycles, B = sync kind.
	EvWait
	// EvCBBlock ("cb.block"): Core's callback read parked in the
	// directory, opening a cb_blocked leg.
	EvCBBlock
	// EvCBWake, EvCBStale ("cb.wake", "cb.stale"): a write, or an
	// eviction, serviced Core's parked read, closing the leg.
	EvCBWake
	EvCBStale
	// EvCBOcc ("cb.occ"): bank Core consulted its directory.
	// A = live entries.
	EvCBOcc
	// EvMonArm, EvMonWake ("mon.arm", "mon.wake"): Core's MONITOR armed
	// and halted it (opening a cb_blocked leg), or woke it.
	EvMonArm
	EvMonWake

	// NumKinds bounds the enum.
	NumKinds
)

var kindNames = [NumKinds]string{
	"exec", "stall.begin", "stall.end", "done", "open", "close", "span",
	"send", "deliver", "sync.begin", "sync.end", "spin.wait",
	"cb.block", "cb.wake", "cb.stale", "cb.occ", "mon.arm", "mon.wake",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Mask is a set of kinds.
type Mask uint32

// Of returns the set of the given kinds.
func Of(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the set.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// TraceKinds are the kinds a trace shows: the Ring, the Chrome writer
// and the bisect log read exactly these.
var TraceKinds = Of(EvNoCSend, EvNoCDeliver, EvSyncBegin, EvSyncEnd, EvWait,
	EvCBBlock, EvCBWake, EvCBStale, EvCBOcc, EvMonArm, EvMonWake)

// Event is one observation. It holds numbers only — no strings and no
// pointer into pooled messages, which the mesh recycles at delivery.
// The operands' meaning depends on Kind (see the constants).
type Event struct {
	Kind  Kind
	Core  memtypes.NodeID
	Cycle uint64
	Addr  memtypes.Addr
	A, B  uint64
}

// Node is the tile the event happened at: a message's source for a send
// and its destination for a delivery, Core otherwise.
func (e Event) Node() memtypes.NodeID {
	switch e.Kind {
	case EvNoCSend:
		return memtypes.NodeID(e.A >> 32)
	case EvNoCDeliver:
		return memtypes.NodeID(uint32(e.A))
	}
	return e.Core
}

// Note renders the event's symbolic operands: a message's kind, class
// and route, or a sync phase's kind ("" for other kinds).
func (e Event) Note() string {
	switch e.Kind {
	case EvNoCSend, EvNoCDeliver:
		return fmt.Sprintf("kind=%#x %s %d->%d", uint16(e.B>>8), memtypes.MsgClass(e.B), e.A>>32, uint32(e.A))
	case EvSyncBegin, EvSyncEnd:
		return isa.SyncKind(e.B).String()
	}
	return ""
}

func (e Event) String() string {
	return fmt.Sprintf("[%8d] node %2d %-10s %-10s %s", e.Cycle, e.Node(), e.Kind, e.Addr, e.Note())
}

// Hook is a component's installed observer: the function events go to
// and the kinds it wants. The zero Hook wants nothing, and an unwanted
// kind costs one bit test.
type Hook struct {
	fn    func(Event)
	kinds Mask
}

// Set installs fn for the given kinds.
func (h *Hook) Set(fn func(Event), kinds Mask) { h.fn, h.kinds = fn, kinds }

// On reports whether k is wanted (for emit sites whose operands cost
// work to compute).
func (h *Hook) On(k Kind) bool { return h.kinds.Has(k) }

// Wants reports whether any kind of m is wanted.
func (h *Hook) Wants(m Mask) bool { return h.kinds&m != 0 }

// Emit delivers e if its kind is wanted.
func (h *Hook) Emit(e Event) {
	if h.kinds.Has(e.Kind) {
		h.fn(e)
	}
}

// Open, Close and Span are shorthands for the accounting legs memory
// components report; they test a constant bit so that they inline.

// Open emits an EvOpen: core's stall began an open-ended leg of
// cycles.Category cat at cycle.
func (h *Hook) Open(core memtypes.NodeID, cycle, cat uint64) {
	if h.kinds&(1<<EvOpen) != 0 {
		h.fn(Event{Kind: EvOpen, Core: core, Cycle: cycle, A: cat})
	}
}

// Close emits an EvClose: core's open leg ended at cycle.
func (h *Hook) Close(core memtypes.NodeID, cycle uint64) {
	if h.kinds&(1<<EvClose) != 0 {
		h.fn(Event{Kind: EvClose, Core: core, Cycle: cycle})
	}
}

// Span emits an EvSpan: core's stall spent [start, end) in
// cycles.Category cat.
func (h *Hook) Span(core memtypes.NodeID, start, end, cat uint64) {
	if h.kinds&(1<<EvSpan) != 0 {
		h.fn(Event{Kind: EvSpan, Core: core, Cycle: start, A: end, B: cat})
	}
}

// Sink consumes the event stream. Kinds is the set it reads, and it must
// not change while the sink is attached: the machine ORs its sinks'
// kinds into the mask components test, and hands each sink only its own
// kinds.
type Sink interface {
	Kinds() Mask
	Emit(Event)
}

// Ring is a bounded in-memory sink keeping the most recent trace events.
type Ring struct {
	buf   []Event
	next  int
	count int
}

// NewRing builds a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1024
	}
	return &Ring{buf: make([]Event, n)}
}

// Kinds implements Sink.
func (r *Ring) Kinds() Mask { return TraceKinds }

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len reports the number of retained events.
func (r *Ring) Len() int { return r.count }

// Dump renders the retained events to w.
func (r *Ring) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e)
	}
}

// Locked wraps a sink with a mutex so several simulations can emit into
// it concurrently (parallel experiment sweeps). The underlying sink sees
// a serialized event stream; relative ordering across concurrent
// simulations is unspecified.
type Locked struct {
	mu sync.Mutex
	s  Sink
}

// NewLocked returns a concurrency-safe view of s.
func NewLocked(s Sink) *Locked { return &Locked{s: s} }

// Kinds implements Sink.
func (l *Locked) Kinds() Mask { return l.s.Kinds() }

// Emit implements Sink.
func (l *Locked) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Emit(e)
}

// Multi fans events out to several sinks, each receiving its own kinds.
type Multi []Sink

// Kinds implements Sink: the union of the members' kinds.
func (m Multi) Kinds() Mask {
	var k Mask
	for _, s := range m {
		k |= s.Kinds()
	}
	return k
}

// Emit implements Sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		if s.Kinds().Has(e.Kind) {
			s.Emit(e)
		}
	}
}

// Summarize counts an event slice by kind, in first-seen order
// ("send=3 deliver=2 ..."), for tests and quick looks.
func Summarize(events []Event) string {
	var counts [NumKinds]int
	var order []Kind
	for _, e := range events {
		if counts[e.Kind] == 0 {
			order = append(order, e.Kind)
		}
		counts[e.Kind]++
	}
	var b strings.Builder
	for i, k := range order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	return b.String()
}
