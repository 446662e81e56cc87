package experiments

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/workload"
)

// This file bridges the experiments layer to the replay subsystem: a
// replay.Source built here reconstructs a benchmark cell exactly the
// way RunBenchmark executes it — same machine configuration, same
// generated programs, same initial memory — which is the determinism
// contract a recording's digest marks verify at replay time.

// GeneratedSource returns the replay source for an already-generated
// workload under a setup: rebuilding yields the machine RunBenchmark
// would run, paused at cycle zero with programs loaded.
func GeneratedSource(g *workload.Generated, s Setup, o Options) replay.Source {
	o = o.fill()
	return replay.Source{
		Label: g.Profile.Name + "/" + s.Name,
		Limit: o.Limit,
		Build: func() (*machine.Machine, error) {
			return buildMachine(g, s, o), nil
		},
	}
}

// BenchmarkSource generates a benchmark's programs for a setup and
// returns its replay source. The workload is generated once; every
// rebuild reuses the same programs (generation is itself deterministic,
// but sharing makes the contract structural).
func BenchmarkSource(p workload.Profile, s Setup, style workload.SyncStyle, o Options) replay.Source {
	o = o.fill()
	g := workload.Generate(p, o.Cores, style, s.Flavor())
	return GeneratedSource(g, s, o)
}

// RecordBenchmark records one benchmark cell for later windowed replay,
// with a digest mark every interval cycles (0 means
// replay.DefaultInterval): the checkpointed counterpart of RunBenchmark.
// o.Context cancels the recording. The returned recording's Stats are
// byte-identical to RunBenchmark's for the same cell.
func RecordBenchmark(p workload.Profile, s Setup, style workload.SyncStyle, o Options, interval uint64) (*replay.Recording, error) {
	return replay.Record(o.Context, BenchmarkSource(p, s, style, o), interval)
}

// EnergyOf computes the energy breakdown for a Stats value with the
// default parameters: the accounting of every run's Result, usable also
// on the mid-run Stats a windowed replay returns.
func EnergyOf(st machine.Stats) energy.Breakdown {
	return energy.Compute(energy.Counts{
		L1Accesses:      st.L1Accesses,
		LLCTagAccesses:  st.LLCAccesses - st.LLCDataAccesses,
		LLCDataAccesses: st.LLCDataAccesses,
		CBDirAccesses:   st.CBDirAccesses,
		FlitHops:        st.Net.FlitHops,
	}, energy.DefaultParams())
}

// BisectBenchmark bisects one benchmark between two (setup, options)
// sides — e.g. the same setup with chaos enabled on one side, or two
// different protocols — and returns the first-divergence report, with
// marks every interval cycles (0 means replay.DefaultInterval). Side
// labels get "/a" and "/b" suffixes when the setups share a name.
// oa.Context cancels the bisection.
func BisectBenchmark(p workload.Profile, style workload.SyncStyle, sa Setup, oa Options, sb Setup, ob Options, interval uint64) (*replay.Report, error) {
	srcA := BenchmarkSource(p, sa, style, oa)
	srcB := BenchmarkSource(p, sb, style, ob)
	if sa.Name == sb.Name {
		srcA.Label += "/a"
		srcB.Label += "/b"
	}
	rp, err := replay.Bisect(oa.Context, srcA, srcB, interval)
	if err != nil {
		return nil, fmt.Errorf("bisect %s: %w", p.Name, err)
	}
	return rp, nil
}
