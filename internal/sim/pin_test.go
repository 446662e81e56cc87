package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
)

var updateKernelPin = flag.Bool("update-kernel-pin", false,
	"rewrite testdata/kernel_pin.txt from the current kernel")

// kernelPinFile pins what the kernel does with one fixed mixed schedule:
// the order events fire in, the scheduler's telemetry and the sequence
// numbers used. A change to how the kernel stores, pushes or pops events
// must leave every line as it is.
const kernelPinFile = "testdata/kernel_pin.txt"

// pinWorld drives one kernel through a fixed mixed schedule. Every event
// gets a fresh id as its arg, and seq[id] is the sequence number it was
// scheduled with; each firing folds (cycle, seq, id) into the hash.
type pinWorld struct {
	k      *Kernel
	rng    uint64
	seq    []uint64
	h      hash.Hash
	fired  uint64
	budget int // events still to schedule from inside Act
	chains [6]pinChain
	waker  pinWaker

	// Counts of the cases the schedule must contain.
	zeroDelay, clamped, belowMemoAct, belowMemoOutside, wokenBelowHead int
}

// pinChain reschedules itself after a repeating cycle of delays and, when
// told to, parks as a ghost until the world wakes it.
type pinChain struct {
	w        *pinWorld
	delays   []uint64
	phase    int
	fires    int
	running  bool // a real event of the chain is pending
	parked   bool
	parkNext bool
	g        Ghost
}

// pinWaker wakes the chain in its payload: the first event of a trio.
type pinWaker struct{ w *pinWorld }

func (w *pinWorld) rand(n uint64) uint64 {
	w.rng = w.rng*6364136223846793005 + 1442695040888963407
	return (w.rng >> 33) % n
}

// id allocates the id of an event about to take sequence number seq.
func (w *pinWorld) id(seq uint64) uint64 {
	w.seq = append(w.seq, seq)
	return uint64(len(w.seq) - 1)
}

func (w *pinWorld) record(id uint64) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], w.k.Now())
	binary.LittleEndian.PutUint64(b[8:], w.seq[id])
	binary.LittleEndian.PutUint64(b[16:], id)
	w.h.Write(b[:])
	w.fired++
}

// at schedules a noise event at the absolute cycle when.
func (w *pinWorld) at(when uint64, a Actor) {
	w.k.AtActor(when, a, nil, w.id(w.k.Scheduled()))
	w.budget--
}

func (w *pinWorld) after(delay uint64, a Actor) {
	if delay == 0 {
		w.zeroDelay++
	}
	w.k.ScheduleActor(delay, a, nil, w.id(w.k.Scheduled()))
	w.budget--
}

// Act fires a noise event, which schedules more of the mix.
func (w *pinWorld) Act(_ any, id uint64) {
	w.record(id)
	if w.budget <= 0 {
		return
	}
	k := w.k
	now := k.Now()
	switch r := w.rand(20); {
	case r < 3:
		w.after(0, w)
		if r == 0 {
			w.after(0, w)
		}
	case r < 7:
		w.after(1+w.rand(20), w)
	case r == 7:
		w.after(wheelSlots+w.rand(2000), w) // overflow heap, migrates later
	case r == 8:
		w.clamped++
		w.at(now-min(now, 1+w.rand(4)), w) // in the past: clamped to now
	case r < 11:
		// Peek at the earliest pending event, then push before it.
		if next, ok := k.NextEventTime(); ok && next > now+1 {
			w.belowMemoAct++
			w.at(now+1+w.rand(next-now-1), w)
		} else {
			w.after(w.rand(40), w)
		}
	case r == 11:
		w.ghostStep()
	case r < 16:
		w.after(w.rand(wheelSlots), w)
	}
	if k.Pending() < 32 {
		w.after(w.rand(64), w)
	}
}

// ghostStep moves one chain on: starts it, tells it to park, wakes it,
// or starts it parked between the two events of a trio.
func (w *pinWorld) ghostStep() {
	c := &w.chains[w.rand(uint64(len(w.chains)))]
	switch {
	case c.parked:
		c.wake()
	case c.running:
		c.parkNext = true
	case w.rand(2) == 0:
		c.running = true
		w.after(w.rand(10), c)
	default:
		w.trio(c)
	}
}

// trio schedules a waker at the next cycle, parks c with its pending
// event at that cycle, and schedules a noise event there too. The waker
// fires first and wakes c, whose event then lands in the current cycle
// below the slot's head: the noise event, which has a larger sequence
// number.
func (w *pinWorld) trio(c *pinChain) {
	k := w.k
	k.AtActor(k.Now()+1, &w.waker, c, w.id(k.Scheduled()))
	c.phase = 0
	c.parked = true
	k.Haunt(&c.g, 1, c.cycle())
	w.after(1, w)
	w.budget--
}

func (a *pinWaker) Act(data any, id uint64) {
	w := a.w
	w.record(id)
	if c := data.(*pinChain); c.parked {
		if c.g.blk.when == w.k.Now() {
			w.wokenBelowHead++
		}
		c.wake()
	}
}

// cycle returns c's delays from its current phase on.
func (c *pinChain) cycle() GhostCycle {
	cyc := GhostCycle{Len: len(c.delays)}
	for i := range c.delays {
		cyc.Delays[i] = c.delays[(c.phase+i)%len(c.delays)]
	}
	return cyc
}

// wake ends c's ghost and schedules its pending event for real, taking
// the chain's phase to that event's, as if it had run.
func (c *pinChain) wake() {
	w := c.w
	passed := c.g.Passed()
	c.phase = int((uint64(c.phase) + passed) % uint64(len(c.delays)))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], passed)
	w.h.Write(b[:])
	seq := c.g.blk.base + uint64(c.g.idx)
	c.parked, c.running = false, true
	w.k.WakeGhost(&c.g, c, nil, w.id(seq))
}

func (c *pinChain) Act(_ any, id uint64) {
	w := c.w
	w.record(id)
	d := c.delays[c.phase]
	c.phase = (c.phase + 1) % len(c.delays)
	c.fires++
	if w.budget <= 0 || c.fires%50 == 0 {
		c.running = false
		return
	}
	if c.parkNext {
		c.parkNext, c.running, c.parked = false, false, true
		w.k.Haunt(&c.g, d, c.cycle())
		return
	}
	w.after(d, c)
}

// runPinSchedule runs the fixed schedule on k to the end. Between runs of
// events the driver steps, runs to boundaries, stops at cycle limits,
// and pushes below a peeked event from outside any Act.
func runPinSchedule(k *Kernel) *pinWorld {
	w := &pinWorld{k: k, rng: 0x5eed, h: sha256.New(), budget: 40000}
	w.waker.w = w
	for i := range w.chains {
		c := &w.chains[i]
		c.w = w
		c.delays = make([]uint64, 1+w.rand(MaxGhostPhases))
		for j := range c.delays {
			c.delays[j] = 1 + w.rand(12)
		}
		if i%2 == 1 && len(c.delays) > 1 {
			c.delays[w.rand(uint64(len(c.delays)))] = 0
		}
	}
	for i := 0; i < 48; i++ {
		w.after(w.rand(600), w)
	}
	for k.Pending() > 0 {
		switch w.rand(4) {
		case 0:
			for i := w.rand(8); i > 0 && k.Step(); i-- {
			}
		case 1:
			k.RunToBoundary(k.Now()+1+w.rand(300), nil)
		case 2:
			if next, ok := k.NextEventTime(); ok && next > k.Now()+1 {
				k.AdvanceTo(k.Now() + w.rand(next-k.Now()))
				w.belowMemoOutside++
				w.at(k.Now()+w.rand(next-k.Now()), w)
			}
		case 3:
			if err := k.Run(k.Now() + 1 + w.rand(500)); err != nil && err != ErrLimit {
				panic(err)
			}
			k.PassGhosts(k.Now())
		}
	}
	return w
}

// pinLines renders what the pin holds: the firing sequence on every
// kernel, the telemetry and sequence numbers on the two-tier kernel.
func pinLines(w *pinWorld, full bool) []string {
	lines := []string{
		fmt.Sprintf("firings %d", w.fired),
		"firing-sha256 " + hex.EncodeToString(w.h.Sum(nil)),
	}
	if full {
		t := w.k.Telemetry()
		lines = append(lines,
			fmt.Sprintf("telemetry wheel=%d heap=%d migrations=%d skips=%d max-pending=%d",
				t.WheelPushes, t.HeapPushes, t.Migrations, t.Skips, t.MaxPending),
			fmt.Sprintf("scheduled %d", w.k.Scheduled()))
	}
	return lines
}

// The fixed mixed schedule fires the pinned sequence on both kernels,
// and the two-tier kernel keeps the pinned telemetry and sequence
// numbers. The schedule holds zero delays, clamped pushes, pushes below
// a peeked event from inside and outside Act, heap events that migrate,
// and ghosts woken in the current cycle below the slot's head.
func TestKernelScheduleMatchesPin(t *testing.T) {
	w := runPinSchedule(New())
	if w.zeroDelay == 0 || w.clamped == 0 || w.belowMemoAct == 0 || w.belowMemoOutside == 0 || w.wokenBelowHead == 0 {
		t.Fatalf("schedule lacks a case: %d zero delays, %d clamped, %d/%d pushes below a peeked event (in Act/outside), %d wakes below the slot head",
			w.zeroDelay, w.clamped, w.belowMemoAct, w.belowMemoOutside, w.wokenBelowHead)
	}
	if tele := w.k.Telemetry(); tele.Migrations == 0 {
		t.Fatal("schedule migrates no heap event")
	}
	t.Logf("%d zero delays, %d clamped, %d/%d pushes below a peeked event (in Act/outside), %d wakes below the slot head",
		w.zeroDelay, w.clamped, w.belowMemoAct, w.belowMemoOutside, w.wokenBelowHead)
	got := pinLines(w, true)
	if *updateKernelPin {
		var b strings.Builder
		b.WriteString("# TestKernelScheduleMatchesPin: the fixed mixed schedule's firing sequence\n")
		b.WriteString("# (cycle, seq, id), its telemetry and sequence numbers. Regenerate only for\n")
		b.WriteString("# an intended change of the schedule: go test ./internal/sim -run TestKernelScheduleMatchesPin -update-kernel-pin\n")
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelPinFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readKernelPin(t)
	for i, l := range got {
		if l != want[i] {
			t.Errorf("two-tier kernel: %q, pinned %q", l, want[i])
		}
	}
	for i, l := range pinLines(runPinSchedule(NewHeapOnly()), false) {
		if l != want[i] {
			t.Errorf("heap-only kernel: %q, pinned %q", l, want[i])
		}
	}
}

func readKernelPin(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(kernelPinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("%s: %d pinned lines, want 4", kernelPinFile, len(lines))
	}
	return lines
}
