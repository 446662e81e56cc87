package machine

import (
	"repro/internal/cpu"
	"repro/internal/memtypes"
)

// plainPort hides that a port lets spin loops park: a core reaching its
// L1 through it never parks.
type plainPort struct{ memtypes.Port }

// UnparkCores rebuilds m's cores, before any program is loaded, so that
// each reaches its L1 through a plain memtypes.Port and no spin loop
// parks.
func UnparkCores(m *Machine) {
	for i, c := range m.Cores {
		var l1 memtypes.Port
		if m.mesiTiles != nil {
			l1 = m.mesiTiles[i].L1
		} else {
			l1 = m.vipsTiles[i].L1
		}
		m.Cores[i] = cpu.New(m.K, c.ID(), plainPort{l1}, cpu.DefaultConfig(m.cfg.BackoffLimit),
			m.classify, func(*cpu.Core) { m.finished++ })
	}
}
