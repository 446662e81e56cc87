package machine

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Stats aggregates a run's counters across all tiles and cores.
type Stats struct {
	// Cycles is the parallel-section execution time: the cycle at which
	// the last core finished.
	Cycles uint64

	Instructions uint64
	MemOps       uint64

	// L1 activity (energy: the L1 is touched by every cached access).
	L1Accesses uint64
	L1Hits     uint64

	// LLC activity.
	LLCAccesses     uint64
	LLCDataAccesses uint64
	LLCSyncAccesses uint64 // accesses caused by synchronization ops
	LLCSyncByKind   [isa.NumSyncKinds]uint64
	LLCMisses       uint64 // memory accesses

	// Callback directory activity (callback protocol only).
	CBDirAccesses uint64
	CBWakes       uint64
	CBStaleWakes  uint64
	CBEvictions   uint64
	CBInstalls    uint64

	// Monitor (quiesce) extension activity.
	MonitorArms    uint64
	MonitorWakeups uint64

	// Network traffic.
	Net noc.Stats

	// Per-kind synchronization latency (summed over cores) and entry
	// counts, from the SyncBegin/SyncEnd markers.
	SyncCycles  [isa.NumSyncKinds]uint64
	SyncEntries [isa.NumSyncKinds]uint64

	BackoffCycles uint64

	// CoreActiveCycles / CoreIdleCycles split each core's lifetime (up
	// to the last finisher) into executing vs. stalled-or-finished
	// time. Stalled time — blocked callbacks, back-off sleeps, memory
	// waits, post-completion idling — is clock-gate-able, the energy
	// opportunity Section 2.1 of the paper points out.
	CoreActiveCycles uint64
	CoreIdleCycles   uint64

	// Chaos counts injected faults (all zero when fault injection is
	// disabled, so baselines stay byte-identical).
	Chaos chaos.Stats

	// CycleStack is the per-core cycle attribution at the run's horizon,
	// nil unless AttachCycles was active (so Stats stay byte-identical
	// with accounting off).
	CycleStack *cycles.MachineStack `json:",omitempty"`
}

// SyncLatency returns the mean latency of one synchronization episode of
// the given kind, or 0 if none ran.
func (s *Stats) SyncLatency(kind isa.SyncKind) float64 {
	if s.SyncEntries[kind] == 0 {
		return 0
	}
	return float64(s.SyncCycles[kind]) / float64(s.SyncEntries[kind])
}

// TotalSyncCycles sums sync latency over all kinds.
func (s *Stats) TotalSyncCycles() uint64 {
	var t uint64
	for _, c := range s.SyncCycles {
		t += c
	}
	return t
}

// Stats collects the aggregate counters for the run so far.
func (m *Machine) Stats() Stats {
	m.settle()
	var s Stats
	for _, c := range m.Cores {
		cs := c.Stats()
		if cs.DoneAt > s.Cycles {
			s.Cycles = cs.DoneAt
		}
		s.Instructions += cs.Instructions
		s.MemOps += cs.MemOps
		s.BackoffCycles += cs.BackoffCycles
		for k := 0; k < int(isa.NumSyncKinds); k++ {
			s.SyncCycles[k] += cs.SyncCycles[k]
			s.SyncEntries[k] += cs.SyncEntries[k]
		}
	}
	for _, c := range m.Cores {
		cs := c.Stats()
		idle := cs.MemStallCycles + cs.BackoffCycles + (s.Cycles - cs.DoneAt)
		if idle > s.Cycles {
			idle = s.Cycles
		}
		s.CoreIdleCycles += idle
		s.CoreActiveCycles += s.Cycles - idle
	}
	addBank := func(d mem.BankStats) {
		s.LLCAccesses += d.Accesses
		s.LLCDataAccesses += d.DataAccesses
		s.LLCSyncAccesses += d.SyncAccesses
		s.LLCMisses += d.Misses
		for k := 0; k < int(isa.NumSyncKinds) && k < len(d.SyncByKind); k++ {
			s.LLCSyncByKind[k] += d.SyncByKind[k]
		}
	}
	for _, t := range m.mesiTiles {
		l1 := t.L1.Stats()
		s.L1Accesses += l1.Accesses
		s.L1Hits += l1.Hits
		ms := t.L1.MonitorStats()
		s.MonitorArms += ms.Arms
		s.MonitorWakeups += ms.Wakeups
		addBank(t.Dir.DataStats())
	}
	for _, t := range m.vipsTiles {
		l1 := t.L1.Stats()
		s.L1Accesses += l1.Accesses
		s.L1Hits += l1.Hits
		addBank(t.Bank.DataStats())
		b := t.Bank.Stats()
		s.CBDirAccesses += b.CBDirAccesses
		s.CBWakes += b.Wakes
		s.CBStaleWakes += b.StaleWakes
		if dir := t.Bank.CBDir(); dir != nil {
			ds := dir.Stats()
			s.CBEvictions += ds.Evictions
			s.CBInstalls += ds.Installs
		}
	}
	s.Net = m.Mesh.Stats()
	if m.chaos != nil {
		s.Chaos = m.chaos.Stats()
	}
	if m.cyc != nil {
		s.CycleStack = m.cyc.Snapshot(m.cycleHorizon())
	}
	return s
}

// CBDirectories returns the callback directories (callback protocol
// only), for tests and diagnostics.
func (m *Machine) CBDirectories() []*core.Directory {
	var ds []*core.Directory
	for _, t := range m.vipsTiles {
		if d := t.Bank.CBDir(); d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}
