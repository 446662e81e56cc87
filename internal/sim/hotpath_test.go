package sim

import "testing"

// The kernel hot path must not allocate: every simulated cycle pops and
// pushes events, so a single allocation per event dominates the profile.

type recordingActor struct {
	data []any
	args []uint64
}

func (a *recordingActor) Act(data any, arg uint64) {
	a.data = append(a.data, data)
	a.args = append(a.args, arg)
}

func TestActorScheduling(t *testing.T) {
	k := New()
	a := &recordingActor{}
	payload := &struct{ n int }{n: 7}
	k.ScheduleActor(3, a, payload, 42)
	k.AtActor(5, a, nil, 99)
	var callAt uint64
	k.ScheduleActor(4, call(func() { callAt = k.Now() }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(a.args) != 2 || a.args[0] != 42 || a.args[1] != 99 {
		t.Fatalf("actor args = %v, want [42 99]", a.args)
	}
	if a.data[0] != payload || a.data[1] != nil {
		t.Fatalf("actor data not passed through verbatim: %v", a.data)
	}
	if callAt != 4 {
		t.Fatalf("interleaved actor event fired at %d, want 4", callAt)
	}
}

func TestNilActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil actor did not panic")
		}
	}()
	New().ScheduleActor(1, nil, nil, 0)
}

func TestActorScheduleNoAllocs(t *testing.T) {
	k := New()
	a := &recordingActor{data: make([]any, 0, 4096), args: make([]uint64, 0, 4096)}
	payload := &struct{ n int }{} // pointer payload: stored in `any` without boxing
	allocs := testing.AllocsPerRun(1000, func() {
		a.data, a.args = a.data[:0], a.args[:0]
		k.ScheduleActor(1, a, payload, 7)
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("ScheduleActor+Step allocated %.1f times per event, want 0", allocs)
	}
}

// Popping must zero the vacated entry in both tiers: otherwise the
// backing arrays pin the last-popped actor and payload forever.
func TestPopZeroesVacatedSlot(t *testing.T) {
	k := New()
	k.ScheduleActor(1, call(func() {}), nil, 0)
	k.ScheduleActor(2, call(func() {}), nil, 0)
	if !k.Step() {
		t.Fatal("Step returned false")
	}
	// Cycle 1's wheel slot drained and rewound; its backing entry must
	// not retain the fired event.
	e := k.slots[1].ev[:1][0]
	if e.actor != nil || e.data != nil {
		t.Fatalf("vacated wheel slot not zeroed: %+v", e)
	}

	kh := NewHeapOnly()
	kh.ScheduleActor(1, call(func() {}), nil, 0)
	kh.ScheduleActor(2, call(func() {}), nil, 0)
	if !kh.Step() {
		t.Fatal("Step returned false")
	}
	tail := kh.heap[:2][1]
	if tail.actor != nil || tail.data != nil {
		t.Fatalf("vacated heap slot not zeroed: %+v", tail)
	}
}

// spinWaveActor models a parked core with a known next wake: it fires and
// immediately reschedules itself period cycles out. No allocations.
type spinWaveActor struct {
	k      *Kernel
	period uint64
	fires  uint64
}

func (a *spinWaveActor) Act(data any, arg uint64) {
	a.fires++
	a.k.ScheduleActor(a.period, a, nil, 0)
}

// benchmarkSpinWave is the ISSUE target distribution: many cores whose
// next wake cycle is already known (short staggered periods -> wheel) plus
// a block of sparse far-future events (watchdogs, timeouts -> heap) that
// the heap-only kernel must sift past on every operation.
func benchmarkSpinWave(b *testing.B, k *Kernel) {
	const spinners = 64
	sp := make([]spinWaveActor, spinners)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		k.ScheduleActor(sp[i].period, &sp[i], nil, 0)
	}
	idle := &spinWaveActor{k: k, period: 2_000_000_000}
	for i := 0; i < 1024; i++ {
		k.AtActor(1_000_000_000+uint64(i), idle, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

func BenchmarkKernelSpinWave(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchmarkSpinWave(b, New()) })
	b.Run("heap", func(b *testing.B) { benchmarkSpinWave(b, NewHeapOnly()) })
}

func TestSpinWaveNoAllocs(t *testing.T) {
	k := New()
	a := &spinWaveActor{k: k, period: 7}
	k.ScheduleActor(a.period, a, nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("spin-wave step allocated %.1f times per event, want 0", allocs)
	}
}
