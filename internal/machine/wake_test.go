package machine

import (
	"reflect"
	"testing"

	"repro/internal/memtypes"
	"repro/internal/mesi"
	"repro/internal/trace"
	"repro/internal/vips"
)

// inFlightCases build 4-core machines in which core 0 parks a spin loop
// long before a writer on tile 3 makes another tile send a message to
// core 0's port: the Inv of a MESI store to a line homed on tile 1, or
// a VIPS st_through of a flag homed on the spinner's own tile. unpark
// rebuilds the cores first, so that no loop parks.
var inFlightCases = []struct {
	name  string
	kind  memtypes.MsgKind
	build func(unpark bool) *Machine
}{
	{"mesi", mesi.MsgInv, func(unpark bool) *Machine {
		cfg := Default(ProtocolMESI)
		cfg.Cores = 4
		m := New(cfg, nil)
		if unpark {
			UnparkCores(m)
		}
		m.Load(3, spinInvWriter(0x1040, 400), nil)
		m.Load(0, spinProgram(0x1040, 0, 40), nil)
		return m
	}},
	{"vips", vips.MsgRacy, func(unpark bool) *Machine {
		cfg := Default(ProtocolBackoff)
		cfg.Cores, cfg.BackoffLimit = 4, 0
		m := New(cfg, nil)
		if unpark {
			UnparkCores(m)
		}
		m.Load(0, backoffSpinProgram(), nil)
		m.Load(3, spinWakeWriters[0].build(0), nil)
		return m
	}},
}

// inFlightWindow runs m with a mesh observer and returns the cycles at
// which the last message of the given kind from another tile to tile 0
// was sent and delivered.
func inFlightWindow(t *testing.T, m *Machine, kind memtypes.MsgKind) (sent, delivered uint64) {
	t.Helper()
	m.Mesh.SetObserver(func(e trace.Event) {
		src, dst := memtypes.NodeID(e.A>>32), memtypes.NodeID(uint32(e.A))
		if src == 0 || dst != 0 || memtypes.MsgKind(e.B>>8) != kind {
			return
		}
		if e.Kind == trace.EvNoCSend {
			sent = e.Cycle
		} else {
			delivered = e.Cycle
		}
	}, trace.Of(trace.EvNoCSend, trace.EvNoCDeliver))
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if delivered <= sent {
		t.Fatalf("no message of kind %d went from another tile to tile 0", kind)
	}
	return sent, delivered
}

// A parked loop stays parked while a message to its port is in flight,
// and wakes only at its delivery: at every pause between the send and
// the delivery core 0 is parked, and the run, resumed from the pause,
// ends with the Stats of a run whose loops never park.
func TestParkedWhileMessageInFlight(t *testing.T) {
	for _, c := range inFlightCases {
		sent, delivered := inFlightWindow(t, c.build(false), c.kind)
		ref := c.build(true)
		if err := ref.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		for pause := sent + 1; pause <= delivered; pause++ {
			m := c.build(false)
			if done, err := m.RunToCycle(nil, pause); err != nil || done {
				t.Fatalf("%s: RunToCycle(%d): done=%v err=%v", c.name, pause, done, err)
			}
			if !m.Cores[0].Parked() {
				t.Errorf("%s: core 0 is not parked at cycle %d, with the message sent at %d and delivered at %d",
					c.name, pause, sent, delivered)
			}
			if err := m.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if got, want := m.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: paused at %d, the run ends with Stats\n%+v\nwant the unparked run's\n%+v", c.name, pause, got, want)
			}
		}
	}
}
