package experiments

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ExtensionSetups returns the configurations for the quiesce extension
// study: the paper's Section 4.1 argues callbacks subsume MWAIT-style
// event monitors; this experiment quantifies it. Quiesce is MESI plus an
// L1 event monitor, so it inherits all invalidation traffic but stops
// burning L1 energy while spinning.
func ExtensionSetups() []Setup {
	return []Setup{
		{Name: "Invalidation", Protocol: machine.ProtocolMESI},
		{Name: "Quiesce", Protocol: machine.ProtocolQuiesce},
		{Name: "CB-All", Protocol: machine.ProtocolCallback},
		{Name: "CB-One", Protocol: machine.ProtocolCallback, CBOne: true},
	}
}

// ExtensionQuiesce runs a synchronization-heavy benchmark subset under
// the extension setups and reports execution time, traffic, L1 accesses
// (the spin-energy proxy), and total energy, normalized to Invalidation.
func ExtensionQuiesce(r *Runs) (*metrics.Table, error) {
	names := r.o.Benchmarks
	if len(names) == 0 {
		names = []string{"radiosity", "ocean", "fluidanimate", "dedup"}
	}
	setups := ExtensionSetups()
	t := metrics.NewTable("Quiesce extension (geomean, normalized to Invalidation)",
		"time", "traffic", "L1 accesses", "energy")
	results, err := r.Results(styleCells(names, setups, workload.StyleScalable))
	if err != nil {
		return nil, err
	}
	cols := map[string][][]float64{}
	for pi := range names {
		base := results[pi*len(setups)]
		for i, s := range setups {
			res := results[pi*len(setups)+i]
			cols[s.Name] = append(cols[s.Name], []float64{
				res.Time() / base.Time(),
				res.Traffic() / base.Traffic(),
				float64(res.Stats.L1Accesses) / float64(base.Stats.L1Accesses),
				res.Energy.Total() / base.Energy.Total(),
			})
		}
	}
	for _, s := range setups {
		rows := cols[s.Name]
		vals := make([]float64, 4)
		for c := 0; c < 4; c++ {
			col := make([]float64, len(rows))
			for i, r := range rows {
				col[i] = r[c]
			}
			vals[c] = metrics.GeoMean(col)
		}
		t.AddRow(s.Name, vals...)
	}
	return t, nil
}
