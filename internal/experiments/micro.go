package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// Micro is a contended synchronization microbenchmark: the per-algorithm
// workloads behind Figure 20 (and the motivation Figure 1).
type Micro struct {
	Name string
	// Kinds are the sync phases whose LLC accesses the figure charges
	// to this construct (the SR barrier includes its embedded T&T&S
	// lock's acquire/release accesses).
	Kinds []isa.SyncKind
	// LatencyKind is the phase whose mean latency the figure reports
	// (the outermost marker; it already includes nested phases).
	LatencyKind isa.SyncKind
	// build generates the per-thread programs.
	build func(cores int, f synclib.Flavor) *workload.Generated
}

// lockMicro builds N threads x iters acquisitions of one shared lock with
// a short critical section and jittered think time.
func lockMicro(name string, mk func(*synclib.Layout, int) synclib.Lock) Micro {
	return Micro{
		Name:        name,
		Kinds:       []isa.SyncKind{isa.SyncAcquire},
		LatencyKind: isa.SyncAcquire,
		build: func(cores int, f synclib.Flavor) *workload.Generated {
			const iters = 8
			lay := synclib.NewLayout()
			lock := mk(lay, cores)
			counter := lay.SharedLine()
			// The counter is the workload's observable datum; the
			// lock's own words (CLH queue nodes especially) may end
			// with order-dependent residue.
			g := &workload.Generated{Layout: lay, Flavor: f,
				Observe: []memtypes.Addr{counter}}
			for tid := 0; tid < cores; tid++ {
				rng := rand.New(rand.NewSource(int64(tid) + 42))
				b := isa.NewBuilder()
				lock.EmitInit(b, f, tid)
				b.Imm(isa.R1, iters)
				b.Label("loop")
				b.Compute(uint64(2000 + rng.Intn(2000)))
				lock.EmitAcquire(b, f, tid)
				b.Imm(isa.R2, uint64(counter))
				b.Ld(isa.R3, isa.R2, 0)
				b.Addi(isa.R3, isa.R3, 1)
				b.St(isa.R2, 0, isa.R3)
				b.Compute(100)
				lock.EmitRelease(b, f, tid)
				b.Addi(isa.R1, isa.R1, ^uint64(0))
				b.Bnez(isa.R1, "loop")
				b.Done()
				g.Programs = append(g.Programs, b.MustBuild())
			}
			return g
		},
	}
}

// barrierMicro builds E episodes of the given barrier with jittered
// compute between episodes.
func barrierMicro(name string, mk func(*synclib.Layout, int) synclib.Barrier) Micro {
	return Micro{
		Name:        name,
		Kinds:       []isa.SyncKind{isa.SyncBarrier, isa.SyncAcquire, isa.SyncRelease},
		LatencyKind: isa.SyncBarrier,
		build: func(cores int, f synclib.Flavor) *workload.Generated {
			const episodes = 8
			lay := synclib.NewLayout()
			bar := mk(lay, cores)
			// Pure synchronization, no data: the outcome is the
			// barrier-episode counts in Stats.
			g := &workload.Generated{Layout: lay, Flavor: f,
				Observe: []memtypes.Addr{}}
			for tid := 0; tid < cores; tid++ {
				rng := rand.New(rand.NewSource(int64(tid) + 7))
				b := isa.NewBuilder()
				bar.EmitInit(b, f, tid)
				b.Imm(isa.R1, episodes)
				b.Label("loop")
				b.Compute(uint64(1000 + rng.Intn(3000)))
				bar.EmitWait(b, f, tid)
				b.Addi(isa.R1, isa.R1, ^uint64(0))
				b.Bnez(isa.R1, "loop")
				b.Done()
				g.Programs = append(g.Programs, b.MustBuild())
			}
			return g
		},
	}
}

// signalWaitMicro pairs producers (even cores) with consumers (odd
// cores); the measured phase is the consumer's wait.
func signalWaitMicro() Micro {
	return Micro{
		Name:        "signal-wait",
		Kinds:       []isa.SyncKind{isa.SyncWait},
		LatencyKind: isa.SyncWait,
		build: func(cores int, f synclib.Flavor) *workload.Generated {
			const iters = 10
			lay := synclib.NewLayout()
			var chans []*synclib.SignalWait
			for i := 0; i < cores/2; i++ {
				chans = append(chans, synclib.NewSignalWait(lay))
			}
			// Pure synchronization, no data: the outcome is the
			// wait-episode counts in Stats.
			g := &workload.Generated{Layout: lay, Flavor: f,
				Observe: []memtypes.Addr{}}
			for tid := 0; tid < cores; tid++ {
				rng := rand.New(rand.NewSource(int64(tid) + 99))
				ch := chans[tid/2]
				b := isa.NewBuilder()
				b.Imm(isa.R1, iters)
				b.Label("loop")
				if tid%2 == 0 {
					b.Compute(uint64(500 + rng.Intn(1000)))
					ch.EmitSignal(b, f)
				} else {
					ch.EmitWait(b, f)
					b.Compute(50)
				}
				b.Addi(isa.R1, isa.R1, ^uint64(0))
				b.Bnez(isa.R1, "loop")
				b.Done()
				g.Programs = append(g.Programs, b.MustBuild())
			}
			return g
		},
	}
}

// Micros returns the five synchronization constructs of Figure 20.
func Micros() []Micro {
	return []Micro{
		lockMicro("T&T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTTASLock(l) }),
		lockMicro("CLH", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewCLHLock(l, n) }),
		barrierMicro("SR barrier", func(l *synclib.Layout, n int) synclib.Barrier {
			return synclib.NewSRBarrier(l, n, synclib.NewTTASLock(l))
		}),
		barrierMicro("TreeSR barrier", func(l *synclib.Layout, n int) synclib.Barrier {
			return synclib.NewTreeBarrier(l, n)
		}),
		signalWaitMicro(),
	}
}

// MicroResult is one micro x setup measurement.
type MicroResult struct {
	// LLCAccesses counts sync-attributed LLC accesses of the measured
	// kind.
	LLCAccesses float64
	// Latency is the mean latency (cycles) of one episode of the
	// measured kind.
	Latency float64
	Stats   machine.Stats
}

// RunMicro runs one microbenchmark under one setup.
func RunMicro(mc Micro, s Setup, o Options) (MicroResult, error) {
	o = o.fill()
	g := mc.build(o.Cores, s.Flavor())
	res, err := runGenerated(g, s, o)
	if err != nil {
		return MicroResult{}, fmt.Errorf("micro %s: %w", mc.Name, err)
	}
	st := res.Stats
	var llc uint64
	for _, k := range mc.Kinds {
		llc += st.LLCSyncByKind[k]
	}
	return MicroResult{
		LLCAccesses: float64(llc),
		Latency:     st.SyncLatency(mc.LatencyKind),
		Stats:       st,
	}, nil
}
