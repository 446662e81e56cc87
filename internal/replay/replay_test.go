package replay_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// litmusSource adapts a random DRF litmus program to a replay source:
// Build reconstructs exactly the machine litmus.RunConfig would run.
func litmusSource(seed int64, threads int, cfg machine.Config) replay.Source {
	p := litmus.RandProgram(seed, threads)
	p.Encode(litmus.FlavorFor(cfg.Protocol))
	return replay.Source{
		Label: fmt.Sprintf("rand-%d-%v", seed, cfg.Protocol),
		Build: func() (*machine.Machine, error) {
			m := machine.New(cfg, synclib.IsPrivate)
			for a, v := range p.Init {
				m.Store.StoreWord(a, v)
			}
			for tid, prog := range p.Threads {
				m.Load(tid, prog, nil)
			}
			return m, nil
		},
	}
}

func plainRun(t *testing.T, src replay.Source) machine.Stats {
	t.Helper()
	m, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(replay.DefaultLimit); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

// The recording contract, over the litmus suite under every protocol and
// both kernels: recording is transparent (Stats byte-identical to a
// plain run), the full-window replay reproduces those Stats, and any
// sub-window replay reproduces the Stats a fresh machine paused at the
// window's end boundary would report.
func TestRecordReplayStatsByteIdentity(t *testing.T) {
	for _, proto := range litmus.Protocols() {
		for _, heap := range []bool{false, true} {
			cfg := machine.Default(proto)
			cfg.Cores = 4
			cfg.HeapOnlyKernel = heap
			src := litmusSource(1, 4, cfg)
			name := fmt.Sprintf("%v/heap=%v", proto, heap)

			want := plainRun(t, src)
			rec, err := replay.Record(nil, src, 256)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := rec.Stats(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: recording is not transparent:\nplain    %+v\nrecorded %+v", name, want, got)
			}
			if rec.End() != want.Cycles+1 {
				t.Fatalf("%s: End() = %d, want %d", name, rec.End(), want.Cycles+1)
			}

			full, err := rec.Replay(nil, 0, rec.End())
			if err != nil {
				t.Fatalf("%s: full replay: %v", name, err)
			}
			if !reflect.DeepEqual(want, full) {
				t.Fatalf("%s: full-window replay Stats differ:\nwant %+v\ngot  %+v", name, want, full)
			}

			// A mid-run window, replayed twice, against a fresh machine
			// paused at the window's end boundary.
			from, to := rec.End()/3, 2*rec.End()/3
			ref, err := src.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.RunToCycle(nil, to); err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			wantMid := ref.Stats()
			for pass := 1; pass <= 2; pass++ {
				got, err := rec.Replay(nil, from, to)
				if err != nil {
					t.Fatalf("%s: window replay pass %d: %v", name, pass, err)
				}
				if !reflect.DeepEqual(wantMid, got) {
					t.Fatalf("%s: window [%d,%d) pass %d Stats differ:\nwant %+v\ngot  %+v",
						name, from, to, pass, wantMid, got)
				}
			}
		}
	}
}

// chromeBytes renders a machine run (or replay window) as Chrome trace
// JSON via the given driver.
func chromeBytes(t *testing.T, drive func(sink trace.Sink) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := trace.NewChromeWriter(&buf)
	if err := drive(cw); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A replayed window's Chrome trace is byte-identical to the trace an
// ordinary traced run emits over the same cycles.
func TestReplayChromeTraceByteIdentity(t *testing.T) {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = 4
	src := litmusSource(2, 4, cfg)

	original := chromeBytes(t, func(sink trace.Sink) error {
		m, err := src.Build()
		if err != nil {
			return err
		}
		m.AttachTrace(sink)
		defer m.DetachTrace()
		return m.Run(replay.DefaultLimit)
	})

	rec, err := replay.Record(nil, src, 512)
	if err != nil {
		t.Fatal(err)
	}
	replayed := chromeBytes(t, func(sink trace.Sink) error {
		_, err := rec.Replay(nil, 0, rec.End(), sink)
		return err
	})
	if !bytes.Equal(original, replayed) {
		t.Fatalf("full-window replayed trace differs from original: %d vs %d bytes", len(original), len(replayed))
	}

	// The same sub-window traced twice is byte-identical.
	from, to := rec.End()/4, rec.End()/2
	w1 := chromeBytes(t, func(sink trace.Sink) error {
		_, err := rec.Replay(nil, from, to, sink)
		return err
	})
	w2 := chromeBytes(t, func(sink trace.Sink) error {
		_, err := rec.Replay(nil, from, to, sink)
		return err
	})
	if !bytes.Equal(w1, w2) {
		t.Fatalf("window [%d,%d) traces differ between passes: %d vs %d bytes", from, to, len(w1), len(w2))
	}
	if len(w1) >= len(original) {
		t.Fatalf("window trace (%d bytes) not smaller than full trace (%d bytes)", len(w1), len(original))
	}
}

// Recording is deterministic: re-recording the same source produces the
// identical mark stream.
func TestRecordMarksDeterministic(t *testing.T) {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = 4
	src := litmusSource(3, 4, cfg)
	rec, err := replay.Record(nil, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := replay.Record(nil, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec2.Marks(), rec.Marks()) {
		t.Fatal("re-recording the same source produced a different mark stream")
	}
}

// A non-deterministic source must fail loudly at replay, not fabricate
// a history: a Build that returns a different machine on the second
// call trips the digest verification at the first crossed mark.
func TestReplayDetectsNonDeterministicSource(t *testing.T) {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = 4
	builds := 0
	src := replay.Source{
		Label: "mutating",
		Build: func() (*machine.Machine, error) {
			builds++
			seed := int64(5)
			if builds > 1 {
				seed = 6 // every rebuild after the recording lies
			}
			p := litmus.RandProgram(seed, 4)
			p.Encode(litmus.FlavorFor(cfg.Protocol))
			m := machine.New(cfg, synclib.IsPrivate)
			for a, v := range p.Init {
				m.Store.StoreWord(a, v)
			}
			for tid, prog := range p.Threads {
				m.Load(tid, prog, nil)
			}
			return m, nil
		},
	}
	rec, err := replay.Record(nil, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(nil, 0, rec.End()); err == nil {
		t.Fatal("replay of a source that does not rebuild the recorded run must fail, not fabricate a history")
	}
}

// The planted-divergence acceptance test: side A fault-free, side B with
// an eviction-storm chaos spec, same program. The bisector must name the
// exact cycle of the first forced callback eviction that lands —
// computed independently here by stepping a side-B machine one event
// boundary at a time and watching Stats().CBEvictions — and the verdict
// must be deterministic across runs.
func TestBisectPlantedChaosDivergence(t *testing.T) {
	cleanCfg := machine.Default(machine.ProtocolCallback)
	cleanCfg.Cores = 4

	// Find a seed whose fault-free run performs no natural callback
	// evictions while the chaos run forces at least one: then the first
	// digest-visible divergence is exactly the first landed eviction.
	var seed int64
	var faulty machine.Config
	found := false
	for seed = 1; seed <= 64; seed++ {
		faulty = cleanCfg
		faulty.Chaos = &chaos.Spec{EvictStormP: 0.5}
		faulty.ChaosSeed = uint64(seed)
		clean := plainRun(t, litmusSource(seed, 4, cleanCfg))
		storm := plainRun(t, litmusSource(seed, 4, faulty))
		if clean.CBEvictions == 0 && storm.CBEvictions > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed in 1..64 gives a clean fault-free run with a landed forced eviction")
	}
	srcA := litmusSource(seed, 4, cleanCfg)
	srcB := litmusSource(seed, 4, faulty)

	// Independent oracle: the first event boundary where the chaos run's
	// eviction counter moves. The event that moved it fired at the cycle
	// just below that boundary.
	mb, err := srcB.Build()
	if err != nil {
		t.Fatal(err)
	}
	var oracle uint64
	foundOracle := false
	for {
		next, ok := mb.NextEventCycle()
		if !ok {
			break
		}
		done, err := mb.RunToCycle(nil, next+1)
		if err != nil {
			t.Fatal(err)
		}
		if mb.Stats().CBEvictions > 0 {
			oracle = next
			foundOracle = true
			break
		}
		if done {
			break
		}
	}
	if !foundOracle {
		t.Fatal("oracle scan never saw the forced eviction land")
	}

	rp, err := replay.Bisect(nil, srcA, srcB, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Diverged {
		t.Fatalf("bisect found no divergence; report:\n%s", rp)
	}
	if rp.Scope != machine.ScopeFull {
		t.Fatalf("chaos-vs-fault-free must compare at full scope, got %v", rp.Scope)
	}
	if rp.Cycle != oracle {
		t.Fatalf("first divergent cycle %d, oracle says the eviction landed at %d\nreport:\n%s", rp.Cycle, oracle, rp)
	}
	if len(rp.Components) == 0 {
		t.Fatalf("no differing components named; report:\n%s", rp)
	}
	hasTile := false
	for _, c := range rp.Components {
		if len(c) >= 4 && c[:4] == "vips" {
			hasTile = true
		}
	}
	if !hasTile {
		t.Fatalf("forced eviction must implicate a vips tile, got %v", rp.Components)
	}

	rp2, err := replay.Bisect(nil, srcA, srcB, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp, rp2) {
		t.Fatalf("bisection verdict is not deterministic:\nfirst  %+v\nsecond %+v", rp, rp2)
	}
}

// Recording runs through the machine's run loop, so its watchdog names
// a core that parks forever instead of the recording spinning on to its
// cycle limit.
func TestWatchdogStopsStuckRecording(t *testing.T) {
	_, err := replay.Record(nil, stuckSource(), 0)
	if !errors.Is(err, machine.ErrNoProgress) {
		t.Fatalf("Record of a stuck source: err = %v, want errors.Is(err, machine.ErrNoProgress)", err)
	}
}

// Both sides of a bisection run under the machine's watchdog.
func TestWatchdogStopsStuckBisection(t *testing.T) {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = 4
	_, err := replay.Bisect(nil, litmusSource(1, 4, cfg), stuckSource(), 0)
	if !errors.Is(err, machine.ErrNoProgress) {
		t.Fatalf("Bisect against a stuck source: err = %v, want errors.Is(err, machine.ErrNoProgress)", err)
	}
}

// A canceled context stops a recording and a replay with an error that
// matches the context's.
func TestCanceledContextStopsRecordAndReplay(t *testing.T) {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = 4
	src := litmusSource(4, 4, cfg)
	rec, err := replay.Record(nil, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := replay.Record(ctx, src, 256); !errors.Is(err, context.Canceled) {
		t.Fatalf("Record under a canceled context: err = %v, want context.Canceled", err)
	}
	if _, err := rec.Replay(ctx, 0, rec.End()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay under a canceled context: err = %v, want context.Canceled", err)
	}
}

// A Recording is immutable: goroutines replaying one window of one
// recording at the same time each get the Stats and trace bytes of a
// lone replay.
func TestConcurrentReplaysOfOneWindow(t *testing.T) {
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := experiments.SetupByName("CB-One")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := replay.Record(nil, experiments.BenchmarkSource(p, setup, workload.StyleScalable, experiments.Options{Cores: 4}), 1024)
	if err != nil {
		t.Fatal(err)
	}
	from, to := rec.End()/3, 2*rec.End()/3
	window := func() (machine.Stats, []byte, error) {
		var buf bytes.Buffer
		cw := trace.NewChromeWriter(&buf)
		st, err := rec.Replay(nil, from, to, cw)
		if err == nil {
			err = cw.Close()
		}
		return st, buf.Bytes(), err
	}
	wantStats, wantTrace, err := window()
	if err != nil {
		t.Fatal(err)
	}
	const replays = 4
	stats := make([]machine.Stats, replays)
	traces := make([][]byte, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], traces[i], errs[i] = window()
		}(i)
	}
	wg.Wait()
	for i := 0; i < replays; i++ {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(stats[i], wantStats) {
			t.Fatalf("replay %d: Stats differ from a lone replay's", i)
		}
		if !bytes.Equal(traces[i], wantTrace) {
			t.Fatalf("replay %d: trace differs from a lone replay's (%d vs %d bytes)", i, len(traces[i]), len(wantTrace))
		}
	}
}
