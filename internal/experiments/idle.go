package experiments

import (
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ExtensionIdleEnergy quantifies the power-saving opportunity the paper
// points out in Section 2.1 ("a core can easily go into a power-saving
// mode while waiting... left for future work"): cores blocked on a
// callback, sleeping in back-off, or halted on a monitor are
// clock-gate-able; cores spinning on an L1 copy are not. It reports, per
// setup, the gate-able fraction of core-cycles and the total energy
// including a per-cycle core model, normalized to Invalidation.
func ExtensionIdleEnergy(r *Runs) (*metrics.Table, error) {
	names := r.o.Benchmarks
	if len(names) == 0 {
		names = []string{"radiosity", "ocean", "fluidanimate", "raytrace"}
	}
	setups := StandardSetups()
	params := energy.DefaultParams()
	params.CoreActivePJ, params.CoreIdlePJ = energy.CoreParams()

	t := metrics.NewTable("Idle-while-blocked extension (geomean over benchmarks)",
		"idle fraction", "core+mem energy")
	results, err := r.Results(styleCells(names, setups, workload.StyleScalable))
	if err != nil {
		return nil, err
	}
	perSetup := map[string][][]float64{}
	for pi := range names {
		var baseEnergy float64
		for i, s := range setups {
			st := results[pi*len(setups)+i].Stats
			e := energy.Compute(energy.Counts{
				L1Accesses:       st.L1Accesses,
				LLCTagAccesses:   st.LLCAccesses - st.LLCDataAccesses,
				LLCDataAccesses:  st.LLCDataAccesses,
				CBDirAccesses:    st.CBDirAccesses,
				FlitHops:         st.Net.FlitHops,
				CoreActiveCycles: st.CoreActiveCycles,
				CoreIdleCycles:   st.CoreIdleCycles,
			}, params)
			if i == 0 {
				baseEnergy = e.Total()
			}
			idleFrac := float64(st.CoreIdleCycles) /
				float64(st.CoreIdleCycles+st.CoreActiveCycles)
			perSetup[s.Name] = append(perSetup[s.Name], []float64{
				idleFrac, e.Total() / baseEnergy,
			})
		}
	}
	for _, s := range setups {
		rows := perSetup[s.Name]
		idle := make([]float64, len(rows))
		en := make([]float64, len(rows))
		for i, r := range rows {
			idle[i], en[i] = r[0], r[1]
		}
		t.AddRow(s.Name, metrics.GeoMean(idle), metrics.GeoMean(en))
	}
	return t, nil
}
