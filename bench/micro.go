package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

// microOp is one layer's unit of work, run as a micro-program on a
// 4-core machine. Each reports micro.<name>_ns, _allocs, _bytes and
// _events per operation; check confirms from Stats that the program did
// the work its name claims.
type microOp struct {
	name  string
	proto machine.Protocol
	ops   int // operations one run performs
	progs func(lay *synclib.Layout) []*isa.Program
	check func(st machine.Stats) bool
}

const (
	microCores = 4
	microN     = 20000 // loop iterations per micro-program run
	microReps  = 3     // runs per micro-program; the median is reported
)

var dec = ^uint64(0) // Addi by this decrements

// counted emits `for R1 = n; R1 != 0; R1-- { body }`.
func counted(b *isa.Builder, n uint64, body func(b *isa.Builder)) {
	b.Imm(isa.R1, n)
	b.Label("loop")
	body(b)
	b.Addi(isa.R1, isa.R1, dec)
	b.Bnez(isa.R1, "loop")
}

// farLine returns a shared line homed at the bank farthest from core 0
// (node microCores-1, two mesh hops away).
func farLine(lay *synclib.Layout) memtypes.Addr {
	for {
		a := lay.SharedLine()
		if uint64(a.Line())/memtypes.LineBytes%microCores == microCores-1 {
			return a
		}
	}
}

var microOps = []microOp{
	{
		// An L1-hit load loop: after the first miss every load hits.
		name: "l1_hit", proto: machine.ProtocolMESI, ops: microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			b := isa.NewBuilder().Imm(isa.R2, uint64(lay.SharedLine()))
			b.Ld(isa.R3, isa.R2, 0)
			counted(b, microN, func(b *isa.Builder) { b.Ld(isa.R3, isa.R2, 0) })
			return []*isa.Program{b.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.L1Hits >= microN },
	},
	{
		// Loads over fresh lines: each misses the L1 and runs a MESI
		// directory transaction at the line's home bank.
		name: "mesi_miss", proto: machine.ProtocolMESI, ops: microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			b := isa.NewBuilder().Imm(isa.R2, uint64(lay.SharedRange(microN*memtypes.LineBytes)))
			counted(b, microN, func(b *isa.Builder) {
				b.Ld(isa.R3, isa.R2, 0)
				b.Addi(isa.R2, isa.R2, memtypes.LineBytes)
			})
			return []*isa.Program{b.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.LLCAccesses >= microN && st.L1Hits < microN/10 },
	},
	{
		// VIPS through-operations: ld_through then st_through to the LLC.
		name: "vips_through", proto: machine.ProtocolCallback, ops: 2 * microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			b := isa.NewBuilder().Imm(isa.R2, uint64(lay.SharedLine()))
			counted(b, microN, func(b *isa.Builder) {
				b.LdThrough(isa.R3, isa.R2, 0)
				b.StThrough(isa.R2, 0, isa.R1)
			})
			return []*isa.Program{b.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.LLCAccesses >= 2*microN },
	},
	{
		// A satisfied ld_cb: the st_through before it fills the reader's
		// F/E bit, so the callback read completes without blocking.
		name: "cb_satisfied", proto: machine.ProtocolCallback, ops: microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			b := isa.NewBuilder().Imm(isa.R2, uint64(lay.SharedLine()))
			counted(b, microN, func(b *isa.Builder) {
				b.StThrough(isa.R2, 0, isa.R1)
				b.LdCB(isa.R3, isa.R2, 0)
			})
			return []*isa.Program{b.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.CBDirAccesses >= microN && st.CBWakes == 0 },
	},
	{
		// A blocked ld_cb woken by st_cb1: two cores pass one token
		// back and forth through two callback words. Each core first
		// reads its word once to install the directory entry and spend
		// the value a new entry starts with; after that each read must
		// wait for the other core's write, and the local work before
		// every write lets the read reach the directory first and park.
		name: "cb_wake", proto: machine.ProtocolCallback, ops: 2 * microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			const work = 100 // cycles before each write
			a, c := uint64(lay.SharedLine()), uint64(lay.SharedLine())
			ping := isa.NewBuilder().Imm(isa.R2, a).Imm(isa.R4, c)
			ping.LdCB(isa.R3, isa.R2, 0).Compute(10 * work)
			counted(ping, microN, func(b *isa.Builder) {
				b.Compute(work)
				b.StCB1(isa.R4, 0, isa.R1)
				b.LdCB(isa.R3, isa.R2, 0)
			})
			pong := isa.NewBuilder().Imm(isa.R2, a).Imm(isa.R4, c)
			pong.LdCB(isa.R3, isa.R4, 0)
			counted(pong, microN, func(b *isa.Builder) {
				b.LdCB(isa.R3, isa.R4, 0)
				b.Compute(work)
				b.StCB1(isa.R2, 0, isa.R1)
			})
			return []*isa.Program{ping.Done().MustBuild(), pong.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.CBWakes >= microN },
	},
	{
		// A store to the far bank: every st_through crosses two mesh
		// hops each way.
		name: "noc_far_store", proto: machine.ProtocolCallback, ops: microN,
		progs: func(lay *synclib.Layout) []*isa.Program {
			b := isa.NewBuilder().Imm(isa.R2, uint64(farLine(lay)))
			counted(b, microN, func(b *isa.Builder) { b.StThrough(isa.R2, 0, isa.R1) })
			return []*isa.Program{b.Done().MustBuild()}
		},
		check: func(st machine.Stats) bool { return st.Net.FlitHops >= 2*microN },
	},
}

// allocCounter snapshots the heap allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocCounter) since() allocCounter {
	b := readAllocs()
	return allocCounter{b.mallocs - a.mallocs, b.bytes - a.bytes}
}

// microSample is one run's per-operation cost.
type microSample struct{ ns, allocs, bytes, events float64 }

// runMicro measures every micro-program and machine.New at 64 cores.
func (r *runner) runMicro() {
	for _, op := range microOps {
		var samples []microSample
		for rep := 0; rep < microReps; rep++ {
			lay := synclib.NewLayout()
			cfg := machine.Default(op.proto)
			cfg.Cores = microCores
			m := machine.New(cfg, synclib.IsPrivate)
			for tid, p := range op.progs(lay) {
				m.Load(tid, p, nil)
			}
			a := readAllocs()
			t0 := time.Now()
			err := m.Run(1 << 40)
			d := time.Since(t0)
			got := a.since()
			if err == nil && !op.check(m.Stats()) {
				err = fmt.Errorf("the program did not do the work it measures: %+v", m.Stats())
			}
			r.op("micro "+op.name, err)
			n := float64(op.ops)
			samples = append(samples, microSample{float64(d.Nanoseconds()) / n,
				float64(got.mallocs) / n, float64(got.bytes) / n, float64(m.K.Executed()) / n})
		}
		r.putMicro(op.name, samples, true)
	}
	var samples []microSample
	for rep := 0; rep < microReps; rep++ {
		a := readAllocs()
		t0 := time.Now()
		m := machine.New(machine.Default(machine.ProtocolCallback), synclib.IsPrivate)
		d := time.Since(t0)
		got := a.since()
		var err error
		if len(m.Cores) != 64 {
			err = fmt.Errorf("built %d cores, want 64", len(m.Cores))
		}
		r.op("micro machine_new_64", err)
		samples = append(samples, microSample{float64(d.Nanoseconds()), float64(got.mallocs), float64(got.bytes), 0})
	}
	r.putMicro("machine_new_64", samples, false)
}

// putMicro records the median run's per-op numbers.
func (r *runner) putMicro(name string, s []microSample, events bool) {
	pick := func(f func(microSample) float64) float64 {
		xs := make([]float64, len(s))
		for i := range s {
			xs[i] = f(s[i])
		}
		return median(xs)
	}
	p := "micro." + name
	r.m[p+"_ns"] = pick(func(x microSample) float64 { return x.ns })
	r.m[p+"_allocs"] = pick(func(x microSample) float64 { return x.allocs })
	r.m[p+"_bytes"] = pick(func(x microSample) float64 { return x.bytes })
	if events {
		r.m[p+"_events"] = pick(func(x microSample) float64 { return x.events })
	}
}
