package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// call adapts a function to an actor, so a test can schedule an inline
// body.
type call func()

func (c call) Act(any, uint64) { c() }

// An event is at most 56 bytes: the actor, its payload, and the scalar
// next to the time and sequence number, with no closure beside them.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 56 {
		t.Fatalf("sizeof(event) = %d bytes, want <= 56", n)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var k Kernel
	fired := false
	k.ScheduleActor(5, call(func() { fired = true }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.Now() != 5 {
		t.Fatalf("Now = %d, want 5", k.Now())
	}
}

func TestFIFOWithinCycle(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleActor(3, call(func() { order = append(order, i) }), nil, 0)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-cycle events must fire in scheduling order)", i, v, i)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	k := New()
	var times []uint64
	delays := []uint64{9, 2, 7, 2, 0, 100, 1}
	for _, d := range delays {
		d := d
		k.ScheduleActor(d, call(func() { times = append(times, k.Now()) }), nil, 0)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatalf("events fired out of time order: %v", times)
	}
	if len(times) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(times), len(delays))
	}
}

func TestZeroDelayFiresSameCycle(t *testing.T) {
	k := New()
	var at uint64 = 999
	k.ScheduleActor(4, call(func() {
		k.ScheduleActor(0, call(func() { at = k.Now() }), nil, 0)
	}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 4 {
		t.Fatalf("zero-delay event fired at %d, want 4", at)
	}
}

func TestChainedScheduling(t *testing.T) {
	k := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			k.ScheduleActor(1, call(step), nil, 0)
		}
	}
	k.ScheduleActor(1, call(step), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if k.Now() != 100 {
		t.Fatalf("Now = %d, want 100", k.Now())
	}
}

func TestRunLimit(t *testing.T) {
	k := New()
	fired := false
	k.ScheduleActor(50, call(func() { fired = true }), nil, 0)
	if err := k.Run(10); err != ErrLimit {
		t.Fatalf("Run(10) err = %v, want ErrLimit", err)
	}
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if k.Now() != 10 {
		t.Fatalf("Now = %d, want clamped to limit 10", k.Now())
	}
	// Resuming with a larger limit completes.
	if err := k.Run(100); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire after resume")
	}
}

// Running until a condition holds is RunToBoundary with a condition:
// it stops right after the event that makes cond true.
func TestRunUntil(t *testing.T) {
	k := New()
	n := 0
	for i := 1; i <= 10; i++ {
		k.ScheduleActor(uint64(i), call(func() { n++ }), nil, 0)
	}
	if k.RunToBoundary(math.MaxUint64, func() bool { return n == 3 }) {
		t.Fatal("RunToBoundary reported a pause, want a stop by its condition")
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3 (stop as soon as condition holds)", n)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %d, want 3", k.Now())
	}
}

// A queue that drains before the condition holds ends the loop as a
// pause, which the caller tells from a stop.
func TestRunUntilDrained(t *testing.T) {
	k := New()
	k.ScheduleActor(1, call(func() {}), nil, 0)
	if !k.RunToBoundary(math.MaxUint64, func() bool { return false }) {
		t.Fatal("RunToBoundary reported a stop by its condition when the queue drained")
	}
	if k.Pending() != 0 || k.Now() != 1 {
		t.Fatalf("pending %d at cycle %d, want a drained queue at cycle 1", k.Pending(), k.Now())
	}
}

// AtActor with when < Now() clamps to now: the event fires later in the
// current cycle, after everything already scheduled for it — identical
// to ScheduleActor with delay 0. Protocol layers compute absolute
// deadlines (FIFO floor + latency) whose floor may already have passed;
// the clamp makes that well-defined.
func TestSchedulePastClampsToNow(t *testing.T) {
	k := New()
	var order []string
	k.ScheduleActor(10, call(func() {
		k.ScheduleActor(0, call(func() { order = append(order, "zero-delay") }), nil, 0)
		k.AtActor(5, call(func() {
			order = append(order, "clamped")
			if k.Now() != 10 {
				t.Errorf("clamped event fired at %d, want 10", k.Now())
			}
		}), nil, 0)
	}), nil, 0)
	a := &recordingActor{}
	k.ScheduleActor(20, call(func() { k.AtActor(3, a, nil, 77) }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The clamped event was scheduled after the zero-delay one, so it
	// fires second within cycle 10.
	want := []string{"zero-delay", "clamped"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20 (clamped actor event fired at cycle 20)", k.Now())
	}
	if len(a.args) != 1 || a.args[0] != 77 {
		t.Fatalf("clamped actor event did not fire: %v", a.args)
	}
}

func TestStep(t *testing.T) {
	k := New()
	n := 0
	k.ScheduleActor(2, call(func() { n++ }), nil, 0)
	k.ScheduleActor(4, call(func() { n++ }), nil, 0)
	if !k.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 || k.Now() != 2 {
		t.Fatalf("after one step: n=%d now=%d", n, k.Now())
	}
	if !k.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if k.Step() {
		t.Fatal("Step returned true with empty queue")
	}
	if k.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", k.Executed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in insertion order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		type rec struct {
			when uint64
			idx  int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, uint64(d)
			k.ScheduleActor(d, call(func() { got = append(got, rec{k.Now(), i}) }), nil, 0)
		}
		if err := k.Run(0); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].when < got[i-1].when {
				return false
			}
			if got[i].when == got[i-1].when && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// A far-future event (overflow heap) with a lower sequence number must
// fire before a directly wheel-pushed event at the same cycle with a
// higher sequence number: migration re-sorts the slot by sequence.
func TestMigrationPreservesSeqOrder(t *testing.T) {
	k := New()
	var order []int
	k.AtActor(2000, call(func() { order = append(order, 0) }), nil, 0) // seq 0: 2000 cycles out -> heap
	k.AtActor(1500, call(func() {                                      // seq 1: also heap at push time
		k.AtActor(2000, call(func() { order = append(order, 1) }), nil, 0) // seq 2: 500 out -> wheel direct
	}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v, want [0 1] (migrated low-seq event must fire first)", order)
	}
	if tele := k.Telemetry(); tele.Migrations == 0 {
		t.Fatal("expected at least one heap->wheel migration")
	}
}

// Property: the two-tier kernel and the heap-only reference kernel fire
// the same events at the same cycles in the same order, including events
// scheduled from within events across the wheel horizon.
func TestWheelHeapIdenticalOrder(t *testing.T) {
	trace := func(k *Kernel, delays []uint16) [][2]uint64 {
		var got [][2]uint64
		for i, d := range delays {
			i, d := uint64(i), uint64(d)
			k.ScheduleActor(d, call(func() {
				got = append(got, [2]uint64{k.Now(), i})
				if d%3 == 0 {
					k.ScheduleActor(d/2+1500, call(func() {
						got = append(got, [2]uint64{k.Now(), 1<<32 | i})
					}), nil, 0)
				}
			}), nil, 0)
		}
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	f := func(delays []uint16) bool {
		return reflect.DeepEqual(trace(New(), delays), trace(NewHeapOnly(), delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Sparse wheels advance the clock in one jump per event; telemetry counts
// those batch skips. The second event sits in the wheel's last slot.
func TestBatchSkipTelemetry(t *testing.T) {
	near, far := uint64(wheelSlots/4), uint64(wheelSlots-1)
	k := New()
	k.ScheduleActor(near, call(func() {}), nil, 0)
	k.ScheduleActor(far, call(func() {}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tele := k.Telemetry(); tele.Skips != 2 {
		t.Fatalf("Skips = %d, want 2 (0->%d and %d->%d)", tele.Skips, near, near, far)
	}
	if tele := k.Telemetry(); tele.WheelPushes != 2 || tele.HeapPushes != 0 {
		t.Fatalf("telemetry = %+v, want both events on the wheel", tele)
	}
}

// New pre-grows the wheel and the heap for every machine, so their size
// is paid per cell: 377 KB at 1,024 slots and 4,096 heap events.
func TestNewPreallocatesUnder64KB(t *testing.T) {
	const n = 16
	var ks [n]*Kernel
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ks {
		ks[i] = New()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ks)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("New allocates %d bytes, want under %d", per, 64<<10)
	}
}

// The Run limit clamp must not disturb the wheel window invariant: after
// stopping at the limit, resuming fires everything in the right order.
func TestRunLimitAcrossWheelHorizon(t *testing.T) {
	k := New()
	var times []uint64
	for _, d := range []uint64{500, 1500, 3000, 3000, 9000} {
		k.ScheduleActor(d, call(func() { times = append(times, k.Now()) }), nil, 0)
	}
	for _, limit := range []uint64{200, 600, 2500, 3000, 5000} {
		if err := k.Run(limit); err != ErrLimit {
			t.Fatalf("Run(%d) err = %v, want ErrLimit", limit, err)
		}
		if k.Now() != limit {
			t.Fatalf("Now = %d after Run(%d), want clamp to limit", k.Now(), limit)
		}
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	want := []uint64{500, 1500, 3000, 3000, 9000}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("fire times = %v, want %v", times, want)
	}
}

func BenchmarkKernelChain(b *testing.B) {
	k := New()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			k.ScheduleActor(1, call(step), nil, 0)
		}
	}
	k.ScheduleActor(1, call(step), nil, 0)
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}
