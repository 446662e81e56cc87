package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ghostWorld drives one kernel with chains (actors that reschedule
// themselves after a repeating cycle of delays) and noise actors that
// fire at pseudo-random times and schedule more noise. With ghosts set,
// each chain is parked as a ghost from cycle parkAt to its wake cycle.
// The log records every real firing as (cycle, actor, firing number).
type ghostWorld struct {
	k      *Kernel
	log    []string
	rng    uint64
	chains []*ghostChain
	ghosts bool
}

type ghostChain struct {
	w        *ghostWorld
	id       int
	delays   []uint64 // the cycle: phase p's firing reschedules after delays[p]
	phase    int
	fires    uint64 // real firings
	parkAt   uint64 // first cycle at which the chain parks instead of rescheduling
	wakeAt   uint64 // cycle of the noise event that wakes it
	parked   bool
	g        Ghost
	passedAt uint64 // fires when it parked
}

func (w *ghostWorld) rand(n uint64) uint64 {
	w.rng = w.rng*6364136223846793005 + 1442695040888963407
	return (w.rng >> 33) % n
}

// cycle draws a chain's delays: 1 to MaxGhostPhases phases, at most one
// of them 0, each up to max.
func (w *ghostWorld) cycle(max uint64) []uint64 {
	d := make([]uint64, 1+w.rand(MaxGhostPhases))
	for i := range d {
		d[i] = 1 + w.rand(max)
	}
	if len(d) > 1 && w.rand(2) == 0 {
		d[w.rand(uint64(len(d)))] = 0
	}
	return d
}

func (c *ghostChain) Act(_ any, _ uint64) {
	c.w.log = append(c.w.log, fmt.Sprintf("%d chain%d#%d", c.w.k.Now(), c.id, c.fires))
	c.fires++
	d := c.delays[c.phase]
	c.phase = (c.phase + 1) % len(c.delays)
	if c.w.ghosts && !c.parked && c.w.k.Now() >= c.parkAt && c.g.blk == nil && c.passedAt == 0 {
		c.parked = true
		c.passedAt = c.fires
		cyc := GhostCycle{Len: len(c.delays)}
		for i := range c.delays {
			cyc.Delays[i] = c.delays[(c.phase+i)%len(c.delays)]
		}
		c.w.k.Haunt(&c.g, d, cyc)
		return
	}
	c.w.k.ScheduleActor(d, c, nil, 0)
}

type ghostNoise struct{ w *ghostWorld }

func (n *ghostNoise) Act(_ any, id uint64) {
	w := n.w
	w.log = append(w.log, fmt.Sprintf("%d noise%d", w.k.Now(), id))
	for _, c := range w.chains {
		if c.parked && w.k.Now() >= c.wakeAt {
			c.parked = false
			// The chain's phase as of its pending event, as if it had run.
			passed := c.g.Passed()
			c.fires += passed
			c.phase = int((uint64(c.phase) + passed) % uint64(len(c.delays)))
			w.k.WakeGhost(&c.g, c, nil, 0)
		}
	}
	if w.k.Now() < 3000 {
		for i := w.rand(3); i > 0; i-- {
			w.k.ScheduleActor(w.rand(9), n, nil, w.rand(1000))
		}
	}
}

func runGhostWorld(seed uint64, ghosts bool) (*ghostWorld, []uint64, uint64) {
	w := &ghostWorld{k: New(), rng: seed, ghosts: ghosts}
	// Seeds 1 mod 4 give every chain the same cycle, so the ghosts fall
	// into shared blocks that each wake splits; seeds 0 mod 4 draw
	// delays up to MaxGhostDelay.
	max := uint64(3)
	if seed%4 == 0 {
		max = MaxGhostDelay
	}
	shared := w.cycle(max)
	for i := 0; i < 8; i++ {
		delays := shared
		if seed%4 != 1 {
			delays = w.cycle(max)
		}
		c := &ghostChain{w: w, id: i, delays: delays,
			parkAt: 50 + w.rand(400), wakeAt: 600 + w.rand(2000)}
		w.chains = append(w.chains, c)
		w.k.ScheduleActor(w.rand(5), c, nil, 0)
	}
	noise := &ghostNoise{w}
	for i := 0; i < 4; i++ {
		w.k.ScheduleActor(w.rand(7), noise, nil, w.rand(1000))
	}
	if err := w.k.Run(4000); err != nil && err != ErrLimit {
		panic(err)
	}
	w.k.PassGhosts(4001)
	var fires []uint64
	for _, c := range w.chains {
		f := c.fires
		if c.parked {
			f += c.g.Passed()
		}
		fires = append(fires, f)
	}
	return w, fires, w.k.Scheduled()
}

// A chain parked as a ghost leaves every other event's cycle, order and
// sequence number exactly as if it had kept scheduling itself, passes
// the same number of events, and resumes in the same place when woken,
// for cycles of one to MaxGhostPhases phases, zero-delay phases and
// delays up to MaxGhostDelay among them.
func TestGhostChainsMatchScheduledChains(t *testing.T) {
	zero, lens := false, map[int]bool{}
	for seed := uint64(1); seed <= 80; seed++ {
		ref, refFires, refSeq := runGhostWorld(seed, false)
		w, fires, seq := runGhostWorld(seed, true)
		refLog, log := ref.log, w.log
		// Drop the reference's chain firings that the ghosts passed.
		got := make(map[string]bool, len(log))
		for _, e := range log {
			got[e] = true
		}
		var want []string
		skipped := 0
		for _, e := range refLog {
			if strings.Contains(e, "chain") && !got[e] {
				skipped++
				continue
			}
			want = append(want, e)
		}
		if !reflect.DeepEqual(want, log) {
			t.Fatalf("seed %d: event order differs with ghosts", seed)
		}
		if !reflect.DeepEqual(fires, refFires) {
			t.Fatalf("seed %d: chain events %v with ghosts, %v scheduled", seed, fires, refFires)
		}
		if seq != refSeq {
			t.Fatalf("seed %d: %d sequence numbers used with ghosts, %d scheduled", seed, seq, refSeq)
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no chain event was ever parked", seed)
		}
		for _, c := range w.chains {
			lens[len(c.delays)] = true
			for _, d := range c.delays {
				zero = zero || (d == 0 && c.passedAt > 0)
			}
		}
	}
	if !zero {
		t.Fatal("no parked chain has a zero-delay phase")
	}
	for k := 1; k <= MaxGhostPhases; k++ {
		if !lens[k] {
			t.Fatalf("no chain has a cycle of %d phases", k)
		}
	}
}
