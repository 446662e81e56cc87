package trace

import (
	"repro/internal/isa"
	"repro/internal/obs"
)

// MetricsCollector is a Sink that folds the event stream into the shared
// simulator histograms: sync-episode latencies by kind, spin-wait
// intervals, callback block-to-wake latencies, and callback-directory
// occupancies. It carries only a small map of in-flight callback blocks,
// so attaching one adds no per-run allocation pressure beyond that map.
//
// A collector belongs to one simulation (its block-matching state is
// per-run); the SimMetrics it feeds may be shared across many runs and
// goroutines.
type MetricsCollector struct {
	m *obs.SimMetrics
	// blocked maps an outstanding cb.block to its start cycle, keyed by
	// requesting core + word address (each core has at most one blocked
	// operation per word).
	blocked map[asyncKey]uint64
}

// NewMetricsCollector returns a collector feeding m.
func NewMetricsCollector(m *obs.SimMetrics) *MetricsCollector {
	return &MetricsCollector{m: m, blocked: make(map[asyncKey]uint64)}
}

// collectorKinds are the kinds a MetricsCollector reads: no NoC kinds,
// so a metrics-only run makes no mesh observer calls at all.
var collectorKinds = Of(EvSyncEnd, EvWait, EvCBBlock, EvCBWake, EvCBStale, EvCBOcc)

// Kinds implements Sink.
func (c *MetricsCollector) Kinds() Mask { return collectorKinds }

// Emit implements Sink.
func (c *MetricsCollector) Emit(e Event) {
	switch e.Kind {
	case EvSyncEnd:
		c.m.ObserveSync(isa.SyncKind(e.B), e.A)
	case EvWait:
		c.m.SpinWait.Observe(float64(e.A))
	case EvCBBlock:
		c.blocked[asyncKey{e.Core, e.Addr.Word()}] = e.Cycle
	case EvCBWake, EvCBStale:
		key := asyncKey{e.Core, e.Addr.Word()}
		if t0, ok := c.blocked[key]; ok {
			delete(c.blocked, key)
			c.m.CBWakeLatency.Observe(float64(e.Cycle - t0))
		}
	case EvCBOcc:
		c.m.CBOccupancy.Observe(float64(e.A))
	}
}

var _ Sink = (*MetricsCollector)(nil)
var _ Sink = (*ChromeWriter)(nil)
