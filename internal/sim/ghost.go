package sim

import "math/bits"

// Ghosts. An actor that parks a chain of self-scheduled events — each a
// fixed delay after the one before, the delays repeating in a cycle of
// up to MaxGhostPhases phases — may hand the chain to the kernel as a
// Ghost instead of scheduling it. A ghost event is never queued or
// executed: the kernel passes it at the exact point of the (time,
// sequence) order where the real event would have fired, and there takes
// the sequence number the real event would have given its successor.
// Every real event therefore keeps the sequence number, and the queue the
// order, it would have had with the chain scheduled. When the actor needs
// its chain back, WakeGhost schedules the pending event at its own cycle
// and sequence number, and the run continues exactly as if it had never
// parked.
//
// The owner learns what the passed events would have done from Passed
// and applies their effects itself, whenever its state is next read.
//
// Ghosts whose events fall in one cycle and pass back to back take
// consecutive sequence numbers, and while they share delays and phase
// they keep moving together. The kernel therefore keeps them in blocks:
// a block is a run of ghosts holding consecutive sequence numbers, and
// passing it costs the same for one ghost as for sixty. Only a real
// event whose sequence number falls inside a block — the event of a
// woken ghost — splits one.

// MaxGhostDelay bounds a ghost's delays. Every pending ghost event then
// lies less than ghostSlots cycles past the point the kernel has passed
// ghosts to, so one ring slot per cycle holds them.
const MaxGhostDelay = ghostSlots - 1

const ghostSlots = 64

// MaxGhostPhases bounds the length of a ghost's cycle of delays.
const MaxGhostPhases = 8

// GhostCycle is the repeating part of a parked chain: the event of phase
// p leads to the next after Delays[p] cycles, for p < Len, and the event
// of phase Len-1 leads back to phase 0. Each delay is at most
// MaxGhostDelay and may be 0 (the next event then fires later in the same
// cycle); the delays of one cycle sum to at least 1.
type GhostCycle struct {
	Delays [MaxGhostPhases]uint64
	Len    int
}

// ghostCycle is a GhostCycle packed into one comparable word and a length.
type ghostCycle struct {
	d [MaxGhostPhases]uint8
	k uint8
}

// Ghost is a parked chain of self-scheduled events. The zero value is
// ready to use; the owner embeds it.
type Ghost struct {
	blk   *ghostBlock // nil once woken
	idx   int         // position in blk; its sequence number is blk.base+idx
	start uint64      // cycle of the chain's first event, of phase 0
}

// Passed reports how many of the ghost's events the kernel has passed.
// The chain's first event is of phase 0, so the pending event's cycle
// and phase say how many came before it.
func (g *Ghost) Passed() uint64 {
	b := g.blk
	var period, off uint64
	for p := uint8(0); p < b.cyc.k; p++ {
		if p == b.phase {
			off = period
		}
		period += uint64(b.cyc.d[p])
	}
	return (b.when-g.start-off)/period*uint64(b.cyc.k) + uint64(b.phase)
}

// ghostBlock is a run of ghosts pending in one cycle with consecutive
// sequence numbers base, base+1, ...: g[i] holds base+i, or is nil when
// woken (its number now belongs to the real event that replaced it).
// All share a cycle and the phase of their pending event.
type ghostBlock struct {
	when  uint64
	base  uint64
	cyc   ghostCycle
	phase uint8
	g     []*Ghost
	holes int
}

// ghostSlot holds the blocks pending in one cycle, in sequence order:
// b[head:] are live.
type ghostSlot struct {
	b    []*ghostBlock
	head int
}

// ghostRing is the kernel's calendar of ghosts: slot t%ghostSlots holds
// the blocks pending at cycle t, for every t in [lo, lo+ghostSlots).
// Passing blocks in slot order, and each slot front to back, visits them
// in (time, sequence) order; a passed block takes fresh, larger sequence
// numbers, so appending it to its next slot keeps that slot sorted (the
// argument the event wheel uses for direct pushes).
type ghostRing struct {
	slots []ghostSlot
	occ   uint64 // bit i: slot i holds a live block
	n     int    // live ghosts
	lo    uint64 // every pending ghost event is at lo or later
	// free recycles blocks.
	free []*ghostBlock
}

// Haunt parks a chain in g in place of scheduling its next event delay
// cycles from now: the event, of phase 0, takes the sequence number a
// Schedule would give it now, and each one passed leads to the next as c
// says. delay is at most MaxGhostDelay.
//
//cbsim:hotpath
func (k *Kernel) Haunt(g *Ghost, delay uint64, c GhostCycle) {
	if delay > MaxGhostDelay || c.Len < 1 || c.Len > MaxGhostPhases {
		panic("sim: ghost delay or cycle length out of range")
	}
	var cyc ghostCycle
	var period uint64
	for p, d := range c.Delays[:c.Len] {
		if d > MaxGhostDelay {
			panic("sim: ghost delay out of range")
		}
		cyc.d[p] = uint8(d)
		period += d
	}
	if period == 0 {
		panic("sim: ghost cycle of zero length")
	}
	cyc.k = uint8(c.Len)
	r := &k.ghosts
	if r.slots == nil {
		//cbvet:alloc-ok one-time ring allocation on the first parked chain
		r.slots = make([]ghostSlot, ghostSlots)
	}
	if r.n == 0 {
		r.lo = k.now
	}
	r.n++
	g.start = k.now + delay
	b := k.newBlock()
	b.when, b.base, b.cyc, b.phase = g.start, k.seq, cyc, 0
	k.seq++
	g.blk, g.idx = b, 0
	b.g = append(b.g, g)
	k.fileBlock(b)
}

// newBlock takes an empty block from the free list.
//
//cbsim:hotpath
func (k *Kernel) newBlock() *ghostBlock {
	r := &k.ghosts
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return b
	}
	//cbvet:alloc-ok pool growth; steady state reuses blocks
	return &ghostBlock{}
}

// freeBlock returns an emptied block to the free list.
//
//cbsim:hotpath
func (k *Kernel) freeBlock(b *ghostBlock) {
	clear(b.g)
	b.g, b.holes = b.g[:0], 0
	k.ghosts.free = append(k.ghosts.free, b)
}

// fileBlock appends b to the slot of its cycle, merging it into the
// slot's last block when b continues that block's sequence numbers and
// moves like it.
//
//cbsim:hotpath
func (k *Kernel) fileBlock(b *ghostBlock) {
	r := &k.ghosts
	i := b.when % ghostSlots
	s := &r.slots[i]
	if n := len(s.b); n > s.head {
		last := s.b[n-1]
		if last.base+uint64(len(last.g)) == b.base && last.cyc == b.cyc && last.phase == b.phase {
			for _, g := range b.g {
				if g != nil {
					g.blk, g.idx = last, len(last.g)
				}
				last.g = append(last.g, g)
			}
			last.holes += b.holes
			k.freeBlock(b)
			return
		}
	}
	s.b = append(s.b, b)
	r.occ |= 1 << i
}

// WakeGhost ends g and schedules a.Act(data, arg) in place of its pending
// event, at that event's cycle and sequence number.
//
//cbsim:hotpath
func (k *Kernel) WakeGhost(g *Ghost, a Actor, data any, arg uint64) {
	if a == nil {
		panic("sim: nil event actor")
	}
	r := &k.ghosts
	b := g.blk
	when, seq := b.when, b.base+uint64(g.idx)
	b.g[g.idx] = nil
	b.holes++
	g.blk = nil
	r.n--
	if b.holes == len(b.g) {
		k.dropBlock(b)
	}
	k.insert(event{when: when, seq: seq, actor: a, data: data, arg: arg})
}

// dropBlock removes an all-woken block from its slot.
//
//cbsim:hotpath
func (k *Kernel) dropBlock(b *ghostBlock) {
	r := &k.ghosts
	i := b.when % ghostSlots
	s := &r.slots[i]
	j := s.head
	for s.b[j] != b {
		j++
	}
	copy(s.b[j:], s.b[j+1:])
	s.b[len(s.b)-1] = nil
	s.b = s.b[:len(s.b)-1]
	if s.head == len(s.b) {
		s.b, s.head = s.b[:0], 0
		r.occ &^= 1 << i
	}
	k.freeBlock(b)
}

// PassGhosts passes every ghost event before cycle t: at a pause or a
// limit, the events the chains would have fired there.
func (k *Kernel) PassGhosts(t uint64) {
	k.passGhosts(t, 0)
}

// passGhosts passes, in order, every ghost event that precedes (when,
// seq) in the event order: all ghost events before cycle when, and those
// at when with a smaller sequence number.
//
//cbsim:hotpath
func (k *Kernel) passGhosts(when, seq uint64) {
	r := &k.ghosts
	for r.n > 0 && r.lo <= when {
		m := r.occ>>(r.lo%ghostSlots) | r.occ<<(ghostSlots-r.lo%ghostSlots)
		t := r.lo + uint64(bits.TrailingZeros64(m))
		if t > when {
			break
		}
		i := t % ghostSlots
		s := &r.slots[i]
		for s.head < len(s.b) {
			b := s.b[s.head]
			if t == when {
				if seq <= b.base {
					r.lo = t
					return
				}
				if cut := seq - b.base; cut < uint64(len(b.g)) {
					k.passBlock(k.splitBlock(b, int(cut)))
					r.lo = t
					return
				}
			}
			s.b[s.head] = nil
			s.head++
			k.passBlock(b)
		}
		s.b, s.head = s.b[:0], 0
		r.occ &^= 1 << i
		r.lo = t
	}
	if r.lo < when {
		r.lo = when
	}
}

// splitBlock detaches b's first cut members into a new block, which it
// returns; b keeps the rest, still filed in its slot.
//
//cbsim:hotpath
func (k *Kernel) splitBlock(b *ghostBlock, cut int) *ghostBlock {
	p := k.newBlock()
	p.when, p.base, p.cyc, p.phase = b.when, b.base, b.cyc, b.phase
	for i, g := range b.g[:cut] {
		if g != nil {
			g.blk, g.idx = p, i
		} else {
			p.holes++
		}
		p.g = append(p.g, g)
	}
	rest := copy(b.g, b.g[cut:])
	clear(b.g[rest:])
	b.g = b.g[:rest]
	for i, g := range b.g {
		if g != nil {
			g.idx = i
		}
	}
	b.base += uint64(cut)
	b.holes -= p.holes
	return p
}

// passBlock passes every live ghost of b, in order: they take the next
// sequence numbers and move on together to their next event, which a
// zero delay files later in the same cycle.
//
//cbsim:hotpath
func (k *Kernel) passBlock(b *ghostBlock) {
	if b.holes > 0 {
		live := 0
		for _, g := range b.g {
			if g != nil {
				g.idx = live
				b.g[live] = g
				live++
			}
		}
		clear(b.g[live:])
		b.g, b.holes = b.g[:live], 0
		if live == 0 {
			k.freeBlock(b)
			return
		}
	}
	b.base = k.seq
	k.seq += uint64(len(b.g))
	b.when += uint64(b.cyc.d[b.phase])
	if b.phase++; b.phase == b.cyc.k {
		b.phase = 0
	}
	k.fileBlock(b)
}
