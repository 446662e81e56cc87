package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// microSource builds a replay source for one sync micro under a setup,
// with the kernel implementation selectable — the experiments helpers
// themselves never set HeapOnlyKernel, so the heap variant needs the
// config assembled by hand.
func microSource(mi Micro, s Setup, o Options, heap bool) replay.Source {
	o = o.fill()
	g := mi.build(o.Cores, s.Flavor())
	cfg := machineConfig(s, o)
	cfg.HeapOnlyKernel = heap
	return replay.Source{
		Label: fmt.Sprintf("%s/%s/heap=%v", mi.Name, s.Name, heap),
		Limit: o.Limit,
		Build: func() (*machine.Machine, error) {
			m := machine.New(cfg, synclib.IsPrivate)
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

// Replayed windows of two sync micros (a lock and a barrier) reproduce
// the original run's Stats byte-identically, on both kernels.
func TestMicroReplayWindowByteIdentity(t *testing.T) {
	setup, err := SetupByName("CB-One")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Cores: 4}
	micros := Micros()
	for _, mi := range []Micro{micros[0], micros[2]} { // T&T&S lock, SR barrier
		for _, heap := range []bool{false, true} {
			src := microSource(mi, setup, o, heap)

			ref, err := src.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(replay.DefaultLimit); err != nil {
				t.Fatalf("%s: %v", src.Label, err)
			}
			want := ref.Stats()

			rec, err := replay.Record(nil, src, 512)
			if err != nil {
				t.Fatalf("%s: %v", src.Label, err)
			}
			if got := rec.Stats(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: recording is not transparent:\nplain    %+v\nrecorded %+v", src.Label, want, got)
			}

			full, err := rec.Replay(nil, 0, rec.End())
			if err != nil {
				t.Fatalf("%s: %v", src.Label, err)
			}
			if !reflect.DeepEqual(want, full) {
				t.Fatalf("%s: full-window replay Stats differ:\nwant %+v\ngot  %+v", src.Label, want, full)
			}

			from, to := rec.End()/3, 2*rec.End()/3
			mid, err := src.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mid.RunToCycle(nil, to); err != nil {
				t.Fatalf("%s: reference: %v", src.Label, err)
			}
			got, err := rec.Replay(nil, from, to)
			if err != nil {
				t.Fatalf("%s: window replay: %v", src.Label, err)
			}
			if wantMid := mid.Stats(); !reflect.DeepEqual(wantMid, got) {
				t.Fatalf("%s: window [%d,%d) Stats differ:\nwant %+v\ngot  %+v", src.Label, from, to, wantMid, got)
			}
		}
	}
}

// RecordBenchmark is the checkpointed counterpart of RunBenchmark: same
// cell, byte-identical Stats — the property the daemon's checkpointed
// job path relies on when serving cached vs recorded results.
func TestRecordBenchmarkMatchesRunBenchmark(t *testing.T) {
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := SetupByName("CB-One")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Cores: 4}
	res, err := RunBenchmark(p, setup, workload.StyleScalable, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordBenchmark(p, setup, workload.StyleScalable, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, rec.Stats()) {
		t.Fatalf("RecordBenchmark Stats differ from RunBenchmark:\nrun    %+v\nrecord %+v", res.Stats, rec.Stats())
	}
	if got, want := EnergyOf(rec.Stats()), res.Energy; !reflect.DeepEqual(got, want) {
		t.Fatalf("EnergyOf(recorded stats) differs from the run's energy:\nrun    %+v\nrecord %+v", want, got)
	}
}
