// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulator components (cores, cache controllers, network routers)
// schedule events at absolute or relative cycle times as pre-bound
// actors. Events that share a cycle fire in scheduling order, which makes
// every run bit-reproducible: the queue is ordered by (time, sequence
// number). RunToBoundary is the one loop that fires a sequence of
// events; Run wraps it, and Step fires a single event.
//
// The scheduler is two-tiered. Near-future events — the overwhelmingly
// common case: NoC hops, cache latencies, spin retries, known next-wakes
// of parked cores — go to a fixed-size calendar wheel with one slot per
// cycle, giving O(1) schedule and pop. Far-future events overflow into a
// hand-rolled typed binary min-heap (container/heap would box every event
// into an `any`, costing an allocation and an indirect call per event) and
// lazily migrate onto the wheel as the clock approaches them. Advancing
// the clock scans the wheel's occupancy bitmap, so a fully quiescent phase
// — every core parked with a known wake cycle — costs one bitmap jump to
// the next occupied slot instead of per-cycle scans. Both tiers keep
// events in flat pre-grown arrays and perform zero heap allocations per
// schedule or step in steady state.
package sim

import (
	"errors"
	"math"
	"math/bits"
)

// ErrLimit is returned by Run when the cycle limit is reached with events
// still pending. It usually indicates a deadlock or an undersized limit.
var ErrLimit = errors.New("sim: cycle limit reached with pending events")

// Actor is a pre-bound event target: every event is one. Scheduling an
// actor needs no per-event closure on hot paths that fire many events
// against one long-lived object (e.g. per-hop message routing in the
// NoC): the receiver, a pointer payload, and a small scalar are stored
// inline in the event.
type Actor interface {
	// Act fires the event. data and arg are the values passed to
	// AtActor/ScheduleActor, verbatim.
	Act(data any, arg uint64)
}

type event struct {
	when  uint64
	seq   uint64
	actor Actor
	data  any
	arg   uint64
}

// before orders events by (time, sequence number).
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Wheel geometry: one slot per cycle over a wheelSlots-cycle horizon.
// Because every wheel event satisfies now <= when < now+wheelSlots, two
// distinct times can never map to the same slot, so each slot holds the
// events of exactly one cycle, in sequence order.
//
// 256 cycles still cover main memory's 160-cycle latency. Every slot
// keeps the backing it grew to for the kernel's lifetime, so the wheel
// holds slots times the most events one cycle ever had; 1,024 slots
// held 2.2 MB in a 64-core cell, and were no faster.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// slotCap is the pre-grown per-slot capacity: slots that ever need more
// keep their grown backing across reuse, so growth is one-time per slot.
const slotCap = 2

// wheelSlot holds the pending events of one cycle. ev[head:] are live, in
// sequence order; entries before head have fired and hold no actor or
// payload.
type wheelSlot struct {
	ev   []event
	head int
}

// initialHeapCap pre-grows the overflow heap. A cell's whole queue, both
// tiers, peaks at 30 to 130 events, so this rarely regrows; a heap that
// does regrow keeps its backing, and steady state never reallocates.
const initialHeapCap = 256

// Telemetry counts scheduler-internal activity, for attributing kernel
// speedups (cmd/benchsnap records it next to the benchmark numbers). The
// counters never feed back into simulation results: machine.Stats stays
// byte-identical across kernel variants.
type Telemetry struct {
	WheelPushes uint64 // events scheduled onto the wheel (incl. migrations)
	HeapPushes  uint64 // events scheduled into the overflow heap
	Migrations  uint64 // heap events migrated onto the wheel
	Skips       uint64 // pops that advanced the clock by more than one cycle
	MaxPending  uint64 // high-water mark of the pending-event count
}

// Kernel is a discrete-event simulator clock and event queue.
// The zero value is ready to use at cycle 0.
type Kernel struct {
	slots  []wheelSlot // calendar wheel (nil until first use of a zero Kernel)
	occ    []uint64    // occupancy bitmap, one bit per slot
	heap   []event     // overflow tier for events >= wheelSlots cycles out
	nwheel int         // live events on the wheel

	now  uint64
	seq  uint64
	nrun uint64

	// heapOnly disables the wheel entirely (NewHeapOnly): the reference
	// single-tier scheduler for byte-identity tests and benchmarks.
	heapOnly bool

	// cached memoizes the earliest pending event: its slot and cycle.
	// The boundary check and the pop share it, and it outlives a pop
	// that leaves events in the slot, so the wheel is scanned once per
	// occupied cycle. cachedSlot < 0 means the event is the heap top.
	cached     bool
	cachedSlot int
	cachedWhen uint64

	// ghosts holds the parked event chains (see ghost.go).
	ghosts ghostRing

	tele Telemetry
}

// New returns a kernel at cycle zero with pre-grown event queues.
func New() *Kernel {
	k := &Kernel{heap: make([]event, 0, initialHeapCap)}
	k.initWheel()
	return k
}

// NewHeapOnly returns a kernel that schedules every event through the
// overflow heap, bypassing the calendar wheel — the single-tier reference
// scheduler. Results are byte-identical to the two-tier kernel (same
// (time, sequence) contract); only the constant factor differs. It exists
// for the wheel-vs-heap identity tests and benchmark baselines.
func NewHeapOnly() *Kernel {
	return &Kernel{heap: make([]event, 0, initialHeapCap), heapOnly: true}
}

// initWheel allocates the wheel: all slots share one flat pre-grown
// backing array so steady-state scheduling touches no allocator.
func (k *Kernel) initWheel() {
	k.slots = make([]wheelSlot, wheelSlots)
	k.occ = make([]uint64, wheelWords)
	backing := make([]event, wheelSlots*slotCap)
	for i := range k.slots {
		k.slots[i].ev = backing[:0:slotCap]
		backing = backing[slotCap:]
	}
}

// Now reports the current simulation cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Executed reports how many events have fired so far.
func (k *Kernel) Executed() uint64 { return k.nrun }

// Pending reports how many events are scheduled but not yet fired.
func (k *Kernel) Pending() int { return k.nwheel + len(k.heap) }

// Telemetry returns the scheduler-internal counters accumulated so far.
func (k *Kernel) Telemetry() Telemetry { return k.tele }

// ScheduleActor runs a.Act(data, arg) delay cycles from now. A delay of
// zero fires later in the current cycle, after all previously scheduled
// events for this cycle.
//
//cbsim:hotpath
func (k *Kernel) ScheduleActor(delay uint64, a Actor, data any, arg uint64) {
	k.AtActor(k.now+delay, a, data, arg)
}

// AtActor runs a.Act(data, arg) at the absolute cycle when. A when
// earlier than Now() is clamped to now: the event fires later in the
// current cycle, after all previously scheduled events, exactly like
// ScheduleActor with delay 0. Protocol layers compute absolute deadlines
// such as "FIFO floor + latency" whose floor may already have passed; the
// clamp makes that well-defined instead of a time-travel bug.
//
// The event takes the largest sequence number yet, so on the wheel it
// belongs at the tail of its slot, and its fields are written there in
// place. It also queues behind the memoized earliest event unless it
// lands in an earlier cycle.
//
//cbsim:hotpath
func (k *Kernel) AtActor(when uint64, a Actor, data any, arg uint64) {
	if a == nil {
		panic("sim: nil event actor")
	}
	if when < k.now {
		when = k.now
	}
	seq := k.seq
	k.seq++
	if when < k.cachedWhen {
		k.cached = false
	}
	if k.heapOnly || when-k.now >= wheelSlots {
		k.tele.HeapPushes++
		k.heapPush(event{when: when, seq: seq, actor: a, data: data, arg: arg})
	} else {
		if k.slots == nil {
			k.initWheel()
		}
		e := k.slotTail(int(when) & wheelMask)
		e.when, e.seq, e.actor, e.data, e.arg = when, seq, a, data, arg
	}
	k.notePending()
}

// insert queues an event that already has its sequence number, which
// may be below the memoized event's: a woken ghost's.
//
//cbsim:hotpath
func (k *Kernel) insert(e event) {
	k.cached = false
	if !k.heapOnly && e.when-k.now < wheelSlots {
		if k.slots == nil {
			k.initWheel()
		}
		k.wheelPush(e)
	} else {
		k.tele.HeapPushes++
		k.heapPush(e)
	}
	k.notePending()
}

// notePending raises the pending-event high-water mark.
//
//cbsim:hotpath
func (k *Kernel) notePending() {
	if p := uint64(k.nwheel + len(k.heap)); p > k.tele.MaxPending {
		k.tele.MaxPending = p
	}
}

// slotTail grows slot si by one entry and returns it, marking the slot
// occupied.
//
//cbsim:hotpath
func (k *Kernel) slotTail(si int) *event {
	k.tele.WheelPushes++
	k.nwheel++
	s := &k.slots[si]
	n := len(s.ev)
	if n == 0 {
		k.occ[si>>6] |= 1 << uint(si&63)
	}
	if n == cap(s.ev) {
		s.ev = append(s.ev, event{})
	} else {
		s.ev = s.ev[:n+1]
	}
	return &s.ev[n]
}

// wheelPush inserts an event with now <= e.when < now+wheelSlots into its
// slot, keeping the slot in sequence order. Only a migration or a woken
// ghost comes here (AtActor writes its events in place), and either can
// arrive with a sequence number below an already-slotted event, taking
// the binary-insert path.
//
//cbsim:hotpath
func (k *Kernel) wheelPush(e event) {
	si := int(e.when) & wheelMask
	*k.slotTail(si) = e
	s := &k.slots[si]
	n := len(s.ev) - 1
	if n == s.head || s.ev[n-1].seq < e.seq {
		return
	}
	lo, hi := s.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ev[mid].seq < e.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(s.ev[lo+1:], s.ev[lo:n])
	s.ev[lo] = e
}

// nextOccupied returns the occupied slot closest to the current cycle,
// scanning the bitmap circularly from now's slot. The caller must ensure
// the wheel is non-empty. This is the batch-skip fast path: a quiescent
// stretch costs one masked word test plus a trailing-zeros jump per 64
// empty slots, not a per-cycle walk.
//
//cbsim:hotpath
func (k *Kernel) nextOccupied() int {
	start := int(k.now) & wheelMask
	wi := start >> 6
	w := k.occ[wi] &^ (1<<uint(start&63) - 1)
	for {
		if w != 0 {
			return wi<<6 | bits.TrailingZeros64(w)
		}
		wi = (wi + 1) & (wheelWords - 1)
		w = k.occ[wi]
	}
}

// migrate moves heap events that entered the wheel horizon onto the wheel.
// Same-time events pop from the heap in sequence order, and wheelPush
// re-orders against any directly pushed slot-mates, so migration preserves
// the (time, sequence) contract exactly.
//
//cbsim:hotpath
func (k *Kernel) migrate() {
	for len(k.heap) > 0 && k.heap[0].when-k.now < wheelSlots {
		k.tele.Migrations++
		k.wheelPush(k.heapPop())
	}
}

// locate finds the earliest pending event and memoizes it for the
// following pop. The caller must ensure events are pending.
//
//cbsim:hotpath
func (k *Kernel) locate() {
	if !k.heapOnly {
		k.migrate()
	}
	if k.nwheel > 0 {
		si := k.nextOccupied()
		start := int(k.now) & wheelMask
		k.cachedSlot = si
		k.cachedWhen = k.now + uint64((si-start)&wheelMask)
	} else {
		k.cachedSlot = -1
		k.cachedWhen = k.heap[0].when
	}
	k.cached = true
}

// earliest returns the time of the earliest pending event. The caller
// must ensure events are pending.
//
//cbsim:hotpath
func (k *Kernel) earliest() uint64 {
	if !k.cached {
		k.locate()
	}
	return k.cachedWhen
}

// heapPush sifts an event up the overflow heap.
//
//cbsim:hotpath
func (k *Kernel) heapPush(e event) {
	h := append(k.heap, e)
	k.heap = h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the heap's earliest event, zeroing the
// vacated tail slot so the popped actor and payload stay collectable.
//
//cbsim:hotpath
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	k.heap = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// stepOne pops and fires the earliest event, advancing the clock to its
// time. The caller must ensure events are pending. It is the single
// shared pop-loop body of Step and RunToBoundary.
//
// A wheel event is read through a pointer to its slot entry, and only the
// entry's actor and payload are cleared, so the slot's backing does not
// keep them alive. A slot that still holds events after the pop holds the
// next earliest one, in the same cycle, so the memo stays.
//
//cbsim:hotpath
func (k *Kernel) stepOne() {
	if !k.cached {
		k.locate()
	}
	var when, arg uint64
	var a Actor
	var data any
	if si := k.cachedSlot; si >= 0 {
		s := &k.slots[si]
		e := &s.ev[s.head]
		if k.ghosts.n > 0 {
			k.passGhosts(e.when, e.seq)
		}
		when, a, data, arg = e.when, e.actor, e.data, e.arg
		e.actor, e.data = nil, nil
		k.nwheel--
		if s.head++; s.head == len(s.ev) {
			s.ev, s.head = s.ev[:0], 0
			k.occ[si>>6] &^= 1 << uint(si&63)
			k.cached = false
		}
	} else {
		if k.ghosts.n > 0 {
			k.passGhosts(k.cachedWhen, k.heap[0].seq)
		}
		e := k.heapPop()
		k.cached = false
		when, a, data, arg = e.when, e.actor, e.data, e.arg
	}
	if when > k.now+1 {
		k.tele.Skips++
	}
	k.now = when
	k.nrun++
	a.Act(data, arg)
}

// Step fires the single earliest pending event and advances the clock to
// its time. It reports false if no events are pending.
//
//cbsim:hotpath
func (k *Kernel) Step() bool {
	if k.Pending() == 0 {
		return false
	}
	k.stepOne()
	return true
}

// Run fires events until the queue drains or the clock would pass limit.
// It returns nil when the queue drained, ErrLimit otherwise, with the
// clock resting on limit. A limit of 0 means no limit.
func (k *Kernel) Run(limit uint64) error {
	end := limit + 1
	if limit == 0 {
		end = math.MaxUint64
	}
	k.RunToBoundary(end, nil)
	if k.Pending() > 0 {
		k.now = limit
		return ErrLimit
	}
	return nil
}

// AdvanceTo moves the clock forward to cycle t with nothing firing, for a
// caller that knows the simulated system is busy until t in ways the
// queue does not hold (parked spin loops). It panics if an event is
// pending before t.
func (k *Kernel) AdvanceTo(t uint64) {
	if k.Pending() > 0 && k.earliest() < t {
		panic("sim: AdvanceTo past a pending event")
	}
	if t > k.now {
		k.now = t
	}
}

// RunToBoundary fires every event scheduled strictly before cycle target
// and none at or after it, pausing the kernel exactly at the boundary.
// It is the kernel's one loop over events. Unlike Run it never bumps the
// clock to the boundary: Now() stays at the last fired event's time, so
// a run chopped into boundary segments executes the identical event
// sequence — and leaves identical state — as one uninterrupted run. This
// is the replay subsystem's chunking primitive: checkpoints and state
// digests are only comparable across runs when they are taken at exact
// cycle boundaries.
//
// It returns true when it paused at the boundary (or the queue drained),
// false when cond stopped it first. cond, when non-nil, is checked once
// before the first event and after each event.
//
//cbsim:hotpath
func (k *Kernel) RunToBoundary(target uint64, cond func() bool) bool {
	if cond != nil && cond() {
		return false
	}
	for k.Pending() > 0 {
		if k.earliest() >= target {
			return true
		}
		k.stepOne()
		if cond != nil && cond() {
			return false
		}
	}
	return true
}

// NextEventTime reports the cycle of the earliest pending event, or
// false when the queue is empty. Peeking does not perturb the queue —
// the lockstep bisection scan uses it to advance two kernels to their
// common next boundary without firing anything.
//
//cbsim:hotpath
func (k *Kernel) NextEventTime() (uint64, bool) {
	if k.Pending() == 0 {
		return 0, false
	}
	return k.earliest(), true
}

// Scheduled reports how many events have ever been scheduled (the
// sequence counter). Together with Executed it identifies the kernel's
// position in an execution without requiring quiescence, which makes it
// digestible mid-run — unlike Now(), which differs between a paused and
// an uninterrupted run even when their histories are identical (the
// paused clock rests on the last event, not the boundary).
func (k *Kernel) Scheduled() uint64 { return k.seq }
