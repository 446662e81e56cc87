package machine_test

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// unparkedSource rebuilds the cell src builds from g under s, on a
// machine whose cores never park a spin loop.
func unparkedSource(src replay.Source, g *workload.Generated, s experiments.Setup, cores int) replay.Source {
	return replay.Source{
		Label: src.Label + "/unparked",
		Limit: src.Limit,
		Build: func() (*machine.Machine, error) {
			cfg := machine.Default(s.Protocol)
			cfg.Cores, cfg.BackoffLimit = cores, s.BackoffLimit
			m := machine.New(cfg, synclib.IsPrivate)
			machine.UnparkCores(m)
			for a, v := range g.Layout.Init {
				m.Store.StoreWord(a, v)
			}
			for tid, prog := range g.Programs {
				m.Load(tid, prog, nil)
			}
			return m, nil
		},
	}
}

// Parking is invisible: a recording reads the same at every mark —
// cycle, full digest and executed events — and ends with the same Stats
// as a recording of the same cell whose spin loops never park. The cells
// are those whose loops park: Invalidation's hit loops and BackOff-0's
// and BackOff-5's own-bank back-off loops, both styles.
func TestParkingIsInvisibleToRecordings(t *testing.T) {
	const cores, interval = 16, 4096
	o := experiments.Options{Cores: cores}
	for _, setup := range []string{"Invalidation", "BackOff-0", "BackOff-5"} {
		s, err := experiments.SetupByName(setup)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"fft", "radiosity", "dedup"} {
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, style := range []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive} {
				g := workload.Generate(p, cores, style, s.Flavor())
				src := experiments.GeneratedSource(g, s, o)
				key := src.Label + "/" + style.String()
				var m *machine.Machine
				build := src.Build
				src.Build = func() (*machine.Machine, error) {
					var err error
					m, err = build()
					return m, err
				}
				parked, err := replay.Record(nil, src, interval)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if m.Executed() == m.K.Executed() {
					t.Errorf("%s: no spin loop parked", key)
				}
				unparked, err := replay.Record(nil, unparkedSource(src, g, s, cores), interval)
				if err != nil {
					t.Fatalf("%s unparked: %v", key, err)
				}
				if parked.Config() != unparked.Config() {
					t.Fatalf("%s: the unparked twin is built as %+v, want %+v", key, unparked.Config(), parked.Config())
				}
				pm, um := parked.Marks(), unparked.Marks()
				for i := 0; i < len(pm) && i < len(um); i++ {
					if pm[i] != um[i] {
						t.Errorf("%s: mark %d is %+v, unparked %+v", key, i, pm[i], um[i])
						break
					}
				}
				if len(pm) != len(um) {
					t.Errorf("%s: %d marks, unparked %d", key, len(pm), len(um))
				}
				if ps, us := parked.Stats(), unparked.Stats(); !reflect.DeepEqual(ps, us) {
					t.Errorf("%s: Stats differ from the unparked run's:\n%+v\n%+v", key, ps, us)
				}
			}
		}
	}
}
