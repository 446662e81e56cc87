package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hitPort is a SpinPort whose reads always hit after lat cycles and may
// always park; it records the n of every issue-phase SpinEvents call. No
// message ever reaches it, so a parked core is never woken.
type hitPort struct {
	k     *sim.Kernel
	lat   uint64
	spins []uint64
}

func (p *hitPort) Access(req *memtypes.Request, done memtypes.Completer) {
	p.k.ScheduleActor(p.lat, call(func() { done.Complete(memtypes.Response{Hit: true}) }), nil, 0)
}

func (p *hitPort) Park(req *memtypes.Request, _ memtypes.Spinner) (memtypes.SpinShape, bool) {
	return memtypes.SpinShape{Delays: [6]uint64{p.lat}, Events: 1}, req.Kind == memtypes.OpRead
}

func (p *hitPort) SpinEvents(_ *memtypes.Request, phase int, n, _, _ uint64) {
	if phase == 0 {
		p.spins = append(p.spins, n)
	}
}

func (p *hitPort) SeenSpins() bool { return false }

func (p *hitPort) SpinResume(*memtypes.Request, int, memtypes.Completer, *sim.Ghost) {
	panic("hitPort: a parked core was woken")
}

// spinSettle runs a core spinning forever on one flag for 2000 cycles
// with an observer wanting kinds, settles it, and returns the
// issue-phase SpinEvents calls and the events the observer saw.
func spinSettle(t *testing.T, kinds trace.Mask) (spins []uint64, events int) {
	t.Helper()
	k := sim.New()
	p := &hitPort{k: k, lat: 1}
	c := New(k, 0, p, DefaultConfig(0), nil, nil)
	c.SetObserver(func(trace.Event) { events++ }, kinds)
	prog := isa.NewBuilder().Imm(isa.R2, 0x40).Label("spin").
		Ld(isa.R3, isa.R2, 0).Beqi(isa.R3, 0, "spin").Done().MustBuild()
	c.Run(prog, 0)
	k.Run(2000)
	if !c.Parked() {
		t.Fatal("the spin loop did not park")
	}
	k.PassGhosts(2000)
	c.Settle()
	return p.spins, events
}

// A parked loop settles its skipped hits in one SpinEvents call unless an
// accounting kind a settled iteration emits is wanted: an observer of
// other kinds (a metrics collector, a trace) keeps bulk settling, and an
// accounting one gets every iteration's events.
func TestSpinSettlesInBulkUnlessAccountingWanted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		kinds    trace.Mask
		perEvent bool
	}{
		{"unobserved", 0, false},
		{"trace kinds", trace.TraceKinds, false},
		{"stall begin", trace.Of(trace.EvStallBegin), true},
		{"exec", trace.Of(trace.EvExec), true},
	} {
		spins, events := spinSettle(t, tc.kinds)
		if tc.perEvent {
			if len(spins) < 100 {
				t.Errorf("%s: %d SpinEvents calls, want one per skipped iteration", tc.name, len(spins))
			}
			for _, n := range spins {
				if n != 1 {
					t.Fatalf("%s: SpinEvents(%d), want 1 per call", tc.name, n)
				}
			}
			if events < len(spins) {
				t.Errorf("%s: observer saw %d events over %d iterations", tc.name, events, len(spins))
			}
			continue
		}
		if len(spins) != 1 || spins[0] < 100 {
			t.Errorf("%s: SpinEvents calls %v, want one bulk call", tc.name, spins)
		}
	}
}
