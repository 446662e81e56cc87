package machine

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// The replay contract: a run chopped into RunToCycle segments fires the
// identical events — and accumulates byte-identical Stats — as one
// uninterrupted Run.
func TestRunToCycleByteIdentity(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback} {
		cfg := Default(p)
		cfg.Cores = 4

		ref := New(cfg, nil)
		loadSmoke(ref)
		if err := ref.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		want := ref.Stats()

		m := New(cfg, nil)
		loadSmoke(m)
		var done bool
		var err error
		for target := uint64(64); !done; target += 64 {
			if done, err = m.RunToCycle(nil, target); err != nil {
				t.Fatalf("%v: RunToCycle(%d): %v", p, target, err)
			}
			if target > 1_000_000 {
				t.Fatalf("%v: no completion within 1M cycles", p)
			}
		}
		if got := m.Stats(); !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: chunked Stats differ from Run:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
}

// smokeEnd runs the smoke workload to completion and returns its end
// cycle, so boundary-based tests scale with the workload.
func smokeEnd(t *testing.T, cfg Config) uint64 {
	t.Helper()
	m := New(cfg, nil)
	loadSmoke(m)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	end := m.Stats().Cycles
	if end < 8 {
		t.Fatalf("smoke workload too short to chunk: %d cycles", end)
	}
	return end
}

// Two machines paused at the same cycle boundary by different chunkings
// hold identical mid-run Stats and identical state digests: the
// boundary, not the path to it, determines the state.
func TestRunToCycleBoundaryIndependence(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	boundary := smokeEnd(t, cfg) / 2

	a := New(cfg, nil)
	loadSmoke(a)
	if done, err := a.RunToCycle(nil, boundary); err != nil || done {
		t.Fatalf("one-shot RunToCycle(%d): done=%v err=%v", boundary, done, err)
	}

	b := New(cfg, nil)
	loadSmoke(b)
	for target := uint64(7); target < boundary; target += 7 {
		if done, err := b.RunToCycle(nil, target); err != nil || done {
			t.Fatalf("stepped RunToCycle(%d): done=%v err=%v", target, done, err)
		}
	}
	if done, err := b.RunToCycle(nil, boundary); err != nil || done {
		t.Fatalf("stepped RunToCycle(%d): done=%v err=%v", boundary, done, err)
	}

	if as, bs := a.Stats(), b.Stats(); !reflect.DeepEqual(as, bs) {
		t.Fatalf("mid-run Stats depend on chunking:\none-shot %+v\nstepped  %+v", as, bs)
	}
	if ad, bd := a.Digest(ScopeFull), b.Digest(ScopeFull); ad != bd {
		t.Fatalf("mid-run digests depend on chunking: %#x vs %#x", ad, bd)
	}
}

// DetachTrace mid-run uninstalls a traced machine's observers: the rest
// of the run emits nothing into the stale sink, and a fresh AttachTrace
// picks up where it left off.
func TestDetachTraceStopsEmission(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	loadSmoke(m)
	stale := 0
	m.AttachTrace(traceCounter{&stale})
	if done, err := m.RunToCycle(nil, smokeEnd(t, cfg)/2); err != nil || done {
		t.Fatalf("RunToCycle: done=%v err=%v", done, err)
	}
	if stale == 0 {
		t.Fatal("attached sink saw no events")
	}
	m.DetachTrace()
	before := stale
	fresh := 0
	m.AttachTrace(traceCounter{&fresh})
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if stale != before {
		t.Fatalf("stale sink received %d events after DetachTrace", stale-before)
	}
	if fresh == 0 {
		t.Fatal("fresh sink attached after DetachTrace saw no events")
	}
}

type traceCounter struct{ n *int }

func (c traceCounter) Kinds() trace.Mask { return trace.TraceKinds }
func (c traceCounter) Emit(trace.Event)  { *c.n++ }
