package main

import (
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// ledger tallies where a run's host time went, setup by setup: the cells
// simulated, their wall time and the kernel events they fired. It
// observes each cell's completion through experiments.Options.Progress,
// which sweeps serialize.
type ledger struct {
	rows map[string]*ledgerRow
}

type ledgerRow struct {
	cells  int
	wall   time.Duration
	events uint64
}

// observe adds a completed cell to its setup's row.
func (l *ledger) observe(e experiments.RunEvent) {
	if !e.Done || e.Err != nil {
		return
	}
	if l.rows == nil {
		l.rows = map[string]*ledgerRow{}
	}
	r := l.rows[e.Setup]
	if r == nil {
		r = &ledgerRow{}
		l.rows[e.Setup] = r
	}
	r.cells++
	r.wall += e.Wall
	r.events += e.Events
}

// table renders one row per setup, the most wall time first, and a last
// row for all of them: cells, wall seconds, share of the cells' wall
// time, events and host nanoseconds per event.
func (l *ledger) table() *metrics.Table {
	t := metrics.NewTable("Host time by setup (wall time inside cells)", "cells", "wall s", "share", "events", "ns/event")
	names := make([]string, 0, len(l.rows))
	var all ledgerRow
	for name, r := range l.rows {
		names = append(names, name)
		all.cells += r.cells
		all.wall += r.wall
		all.events += r.events
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := l.rows[names[i]], l.rows[names[j]]
		if a.wall != b.wall {
			return a.wall > b.wall
		}
		return names[i] < names[j]
	})
	row := func(name string, r *ledgerRow) {
		var share, perEvent float64
		if all.wall > 0 {
			share = float64(r.wall) / float64(all.wall)
		}
		if r.events > 0 {
			perEvent = float64(r.wall.Nanoseconds()) / float64(r.events)
		}
		t.AddRow(name, float64(r.cells), r.wall.Seconds(), share, float64(r.events), perEvent)
	}
	for _, name := range names {
		row(name, l.rows[name])
	}
	row("all", &all)
	return t
}
