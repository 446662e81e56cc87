package experiments

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// This file produces the "where the time goes" figure: per protocol
// setup, the fraction of all core cycles attributed to each accounting
// category. It is the cycle-stack view of the paper's argument — under
// Invalidation and BackOff the synchronization time shows up as
// spin-wait (plus the NoC/LLC traffic the spinning generates), while
// under Callback the same cycles move into cb-blocked, which is
// clock-gate-able.

// CycleStackResult is one benchmark's cycle-stack sweep: the rendered
// fraction table plus the raw per-setup stacks (the profiler's input).
type CycleStackResult struct {
	Benchmark string
	Table     *metrics.Table
	Stacks    []cycles.SetupStack
}

// RunCycleStacks runs one benchmark across the given setups with cycle
// accounting attached, through a cell set of its own and across
// Options.Parallelism workers, and tabulates the per-category share of
// all core cycles (each row sums to 1 by conservation).
func RunCycleStacks(bench string, setups []Setup, style workload.SyncStyle, o Options) (*CycleStackResult, error) {
	o.CycleStacks = true
	results, err := NewRuns(o).Results(styleCells([]string{bench}, setups, style))
	if err != nil {
		return nil, err
	}
	cols := make([]string, cycles.NumCategories)
	for c := cycles.Category(0); c < cycles.NumCategories; c++ {
		cols[c] = c.String()
	}
	res := &CycleStackResult{
		Benchmark: bench,
		Table:     metrics.NewTable(fmt.Sprintf("Cycle stacks: %s (fraction of all core cycles)", bench), cols...),
	}
	for i, s := range setups {
		stack := results[i].Stats.CycleStack
		if stack == nil {
			return nil, fmt.Errorf("cycles: %s under %s returned no cycle stack", bench, s.Name)
		}
		res.Stacks = append(res.Stacks, cycles.SetupStack{Setup: s.Name, Stack: stack})
		total := float64(stack.TotalCycles())
		row := make([]float64, cycles.NumCategories)
		if total > 0 {
			for cat, n := range stack.Totals() {
				row[cat] = float64(n) / total
			}
		}
		res.Table.AddRow(s.Name, row...)
	}
	return res, nil
}
