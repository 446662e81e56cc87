// Package machine assembles a full simulated chip multiprocessor: a
// width x height mesh of tiles, each with an in-order core, a private L1,
// and an LLC bank (plus directory or callback directory depending on the
// protocol), per Table 2 of the paper.
package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/mesi"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vips"
)

// Protocol selects the coherence configuration under evaluation
// (Section 5.2).
type Protocol uint8

const (
	// ProtocolMESI is the invalidation-based directory baseline.
	ProtocolMESI Protocol = iota
	// ProtocolBackoff is self-invalidation with LLC spinning and
	// exponential back-off (the VIPS-M baseline).
	ProtocolBackoff
	// ProtocolCallback is self-invalidation plus the callback directory.
	ProtocolCallback
	// ProtocolQuiesce is the MESI baseline with a MONITOR/MWAIT-style
	// event monitor at each L1: blocking reads halt the core until the
	// monitored line is invalidated (the quiesce mechanism of the
	// paper's Section 4.1 related work).
	ProtocolQuiesce
	// ProtocolQueueLock is the self-invalidation protocol with the
	// VIPS-M blocking-bit lock queue at the LLC controller instead of
	// callbacks (the lock mechanism the paper contrasts against).
	ProtocolQueueLock
)

func (p Protocol) String() string {
	switch p {
	case ProtocolMESI:
		return "Invalidation"
	case ProtocolBackoff:
		return "BackOff"
	case ProtocolCallback:
		return "Callback"
	case ProtocolQuiesce:
		return "Quiesce"
	case ProtocolQueueLock:
		return "QueueLock"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// Config parameterizes a machine.
type Config struct {
	Protocol Protocol
	// Cores is the core count; it must be a perfect square (mesh).
	// Defaults to 64 (8x8, Table 2).
	Cores int
	// BackoffLimit is the number of exponentiations before the back-off
	// ceiling (BackOff-N); 0 means direct LLC spinning. The initial
	// interval is cpu.DefaultConfig's.
	BackoffLimit int
	// CBEntriesPerBank sizes the callback directories (default 4).
	CBEntriesPerBank int
	// WakePolicy selects the write_CB1 policy.
	WakePolicy core.WakePolicy
	// CBEvict selects the callback directory replacement policy.
	CBEvict core.EvictPolicy
	// CBLineGranular switches callback directories to line-granular
	// tags (ablation).
	CBLineGranular bool
	// IdealNoC disables network contention (ablation).
	IdealNoC bool
	// Chaos, when non-nil and active, enables the deterministic
	// fault-injection layer seeded by ChaosSeed (see internal/chaos).
	// Runtime invariant checking is enabled automatically. The spec's
	// CBCapacity/CBEvictLRU overrides take precedence over
	// CBEntriesPerBank/CBEvict.
	Chaos     *chaos.Spec
	ChaosSeed uint64
	// Watchdog, when nonzero, arms the liveness watchdog: a run with no
	// global progress for Watchdog cycles fails with ErrNoProgress.
	Watchdog uint64
	// HeapOnlyKernel selects the single-tier reference event scheduler
	// (sim.NewHeapOnly) instead of the two-tier calendar-wheel kernel.
	// Results are byte-identical either way; the flag exists for the
	// wheel-vs-heap identity tests and benchmark baselines.
	HeapOnlyKernel bool
}

// Default returns the Table 2 configuration for a protocol.
func Default(p Protocol) Config {
	return Config{
		Protocol:         p,
		Cores:            64,
		BackoffLimit:     10,
		CBEntriesPerBank: core.DefaultEntries,
	}
}

// Machine is a runnable simulated CMP.
type Machine struct {
	K     *sim.Kernel
	Mesh  *noc.Mesh
	Store *mem.Store
	Cores []*cpu.Core

	cfg       Config
	vipsTiles []*vips.Tile
	mesiTiles []*mesi.Tile

	classify func(memtypes.Addr) bool

	// sinks consume the machine's event stream (see install).
	//cbvet:ephemeral observational event fan-out; simulated behaviour is byte-identical with or without it
	sinks []sink

	// cyc is the cycle-accounting accumulator among the sinks, if any.
	//cbvet:ephemeral observational cycle accounting; simulated behaviour is byte-identical with or without it
	cyc *cycles.Accumulator

	// chaos is the fault-injection engine shared by the mesh and banks
	// (nil when disabled); watchdog and checkInv drive the liveness and
	// invariant monitors of the run loop (see robust.go).
	chaos *chaos.Engine
	//cbvet:ephemeral monitor configuration for the run loop, not simulated state; re-applied at wiring
	watchdog uint64
	//cbvet:ephemeral monitor configuration for the run loop, not simulated state; re-applied at wiring
	checkInv bool
	// mon is the run loop's monitor state (see advance).
	//cbvet:ephemeral run-loop bookkeeping (context, poll count, watchdog sample), not simulated state
	mon monitor

	loaded   int
	finished int
}

// ValidateCores reports whether n is a legal simulated core count: a
// positive perfect square no larger than 64 (the machine is a w x w mesh,
// and both the MESI directory's sharers and the callback directory's F/E
// and CB bits are one 64-bit vector, bit c for core c). It is the single
// validation shared by the CLIs, the service API, and New.
func ValidateCores(n int) error {
	if n <= 0 {
		return fmt.Errorf("machine: cores must be positive (got %d)", n)
	}
	if n > 64 {
		return fmt.Errorf("machine: at most 64 cores (got %d): the MESI and callback directories keep one bit per core in a 64-bit vector", n)
	}
	w := int(math.Sqrt(float64(n)))
	if w*w != n {
		return fmt.Errorf("machine: %d cores is not a perfect square: the chip is a w x w mesh (try %d or %d)", n, w*w, (w+1)*(w+1))
	}
	return nil
}

// MaxCBEntries bounds the callback-directory entries per bank. Every
// entry of every bank is allocated up front, so an unbounded size lets
// one request exhaust host memory. The bound is four times the paper's
// largest size, 256.
const MaxCBEntries = 1024

// ValidateCBEntries reports whether n is a legal callback-directory size
// per bank: 0 (the default size) up to MaxCBEntries. It is the single
// validation shared by cbsim, the service API, and New.
func ValidateCBEntries(n int) error {
	if n < 0 || n > MaxCBEntries {
		return fmt.Errorf("machine: callback directory entries must be 0 (default) to %d (got %d)", MaxCBEntries, n)
	}
	return nil
}

// New builds a machine. classify marks thread-private addresses (nil
// means none).
func New(cfg Config, classify func(memtypes.Addr) bool) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 64
	}
	if err := ValidateCores(cfg.Cores); err != nil {
		panic(err.Error())
	}
	if cfg.Chaos.Active() {
		// Structural overrides (capacity squeeze, eviction policy)
		// apply at build time; everything else is drawn per site from
		// the seeded engine.
		if n := cfg.Chaos.CBCapacity; n > 0 {
			cfg.CBEntriesPerBank = n
		}
		if cfg.Chaos.CBEvictLRU {
			cfg.CBEvict = core.EvictLRU
		}
	}
	if err := ValidateCBEntries(cfg.CBEntriesPerBank); err != nil {
		panic(err.Error())
	}
	w := int(math.Sqrt(float64(cfg.Cores)))
	k := sim.New()
	if cfg.HeapOnlyKernel {
		k = sim.NewHeapOnly()
	}
	m := &Machine{
		K:        k,
		Mesh:     noc.New(k, w, w),
		Store:    mem.NewStore(),
		cfg:      cfg,
		watchdog: cfg.Watchdog,
	}
	if cfg.Chaos.Active() {
		m.chaos = chaos.NewEngine(*cfg.Chaos, cfg.ChaosSeed)
		m.checkInv = true
		m.Mesh.SetChaos(m.chaos)
	}
	m.classify = classify
	if cfg.IdealNoC {
		m.Mesh.SetIdeal(true)
	}
	bankOf := func(a memtypes.Addr) memtypes.NodeID {
		return memtypes.NodeID(uint64(a.Line()) / memtypes.LineBytes % uint64(cfg.Cores))
	}
	coreCfg := cpu.DefaultConfig(cfg.BackoffLimit)
	onDone := func(*cpu.Core) { m.finished++ }
	for n := 0; n < cfg.Cores; n++ {
		id := memtypes.NodeID(n)
		var port memtypes.Port
		switch cfg.Protocol {
		case ProtocolMESI, ProtocolQuiesce:
			tile := &mesi.Tile{
				L1:  mesi.NewL1(k, id, m.Mesh, m.Store, bankOf),
				Dir: mesi.NewDir(k, id, m.Mesh, m.Store),
			}
			if cfg.Protocol == ProtocolQuiesce {
				tile.L1.EnableMonitor()
			}
			if m.chaos != nil {
				tile.Dir.SetChaos(m.chaos)
			}
			m.Mesh.Attach(id, tile)
			m.mesiTiles = append(m.mesiTiles, tile)
			port = tile.L1
		case ProtocolBackoff, ProtocolCallback, ProtocolQueueLock:
			vcfg := vips.Config{
				Mode:             vips.ModeBackoff,
				CBEntriesPerBank: cfg.CBEntriesPerBank,
				WakePolicy:       cfg.WakePolicy,
				CBEvict:          cfg.CBEvict,
				CBLineGranular:   cfg.CBLineGranular,
			}
			if cfg.Protocol == ProtocolCallback {
				vcfg.Mode = vips.ModeCallback
			}
			if cfg.Protocol == ProtocolQueueLock {
				vcfg.Mode = vips.ModeQueueLock
			}
			tile := vips.NewTile(vips.NewL1(k, id, m.Mesh, bankOf),
				vips.NewBank(k, id, m.Mesh, m.Store, cfg.Cores, vcfg))
			if m.chaos != nil {
				tile.Bank.SetChaos(m.chaos)
			}
			m.Mesh.Attach(id, tile)
			m.vipsTiles = append(m.vipsTiles, tile)
			port = tile.L1
		default:
			panic(fmt.Sprintf("machine: unknown protocol %d", cfg.Protocol))
		}
		m.Cores = append(m.Cores, cpu.New(k, id, port, coreCfg, classify, onDone))
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// sink is an attached consumer and the kinds it reads.
type sink struct {
	s     trace.Sink
	kinds trace.Mask
}

// AttachTrace adds a sink: from now on it receives the kinds it
// declares. It may be called several times.
func (m *Machine) AttachTrace(s trace.Sink) {
	m.install(append(m.sinks, sink{s, s.Kinds()}))
}

// AttachCycles adds a cycle-accounting accumulator as a sink, replacing
// any earlier one; attaching nil detaches it.
func (m *Machine) AttachCycles(a *cycles.Accumulator) {
	var sinks []sink
	for _, s := range m.sinks {
		if s.s != trace.Sink(m.cyc) {
			sinks = append(sinks, s)
		}
	}
	if m.cyc = a; a != nil {
		sinks = append(sinks, sink{a, a.Kinds()})
	}
	m.install(sinks)
}

// install is the one path that changes what the machine observes. It
// settles parked spin loops, whose past events go to the old sinks, and
// installs emit on every component with the union of the sinks' kinds:
// with only a metrics collector the mesh emits nothing, and parked loops
// settle in bulk unless a sink reads cycle accounting.
func (m *Machine) install(sinks []sink) {
	m.settle()
	m.sinks = sinks
	var kinds trace.Mask
	for _, s := range sinks {
		kinds |= s.kinds
	}
	m.Mesh.SetObserver(m.emit, kinds)
	for _, c := range m.Cores {
		c.SetObserver(m.emit, kinds)
	}
	for _, t := range m.vipsTiles {
		t.L1.SetObserver(m.emit, kinds)
		t.Bank.SetObserver(m.emit, kinds)
	}
	for _, t := range m.mesiTiles {
		t.L1.SetObserver(m.emit, kinds)
		t.Dir.SetObserver(m.emit, kinds)
	}
}

// emit hands e to every sink that reads its kind.
func (m *Machine) emit(e trace.Event) {
	for _, s := range m.sinks {
		if s.kinds.Has(e.Kind) {
			s.s.Emit(e)
		}
	}
}

// cycleHorizon is the horizon cycle stacks are charged to: the cycle the
// last core retired its program, or the current kernel time if the run
// was stopped early (or no core has finished).
func (m *Machine) cycleHorizon() uint64 {
	var h uint64
	done := 0
	for _, c := range m.Cores {
		if c.Done() {
			done++
			if at := c.Stats().DoneAt; at > h {
				h = at
			}
		}
	}
	if done < len(m.Cores) || h == 0 {
		return m.K.Now()
	}
	return h
}

// ObserveMetrics folds a finished (or stopped) run's end-of-run samples
// into sm: per-link NoC utilization over the cycles simulated, plus the
// run counter. Event-level histograms (sync latency, spins, callback
// wakes) are fed live by attaching a trace.MetricsCollector.
func (m *Machine) ObserveMetrics(sm *obs.SimMetrics) {
	m.settle()
	if cycles := m.K.Now(); cycles > 0 {
		m.Mesh.VisitLinkBusy(func(_ memtypes.NodeID, busy uint64) {
			sm.LinkUtil.Observe(float64(busy) / float64(cycles))
		})
	}
	if m.cyc != nil {
		snap := m.cyc.Snapshot(m.cycleHorizon())
		proto := m.cfg.Protocol.String()
		for cat, total := range snap.Totals() {
			if total > 0 {
				sm.AddCycles(proto, cycles.Category(cat).String(), total)
			}
		}
	}
	sm.Runs.Inc()
}

// Load assigns a program to core n with initial register values, starting
// at cycle 0. Registers are applied in sorted order so the core's
// register-write sequence is identical run to run.
func (m *Machine) Load(n int, prog *isa.Program, regs map[isa.Reg]uint64) {
	keys := make([]isa.Reg, 0, len(regs))
	//cbvet:unordered keys are sorted before use
	for r := range regs {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, r := range keys {
		m.Cores[n].SetReg(r, regs[r])
	}
	m.Cores[n].Run(prog, 0)
	m.loaded++
}

// Run simulates until every loaded core finishes, or the cycle limit is
// hit (an error: usually a synchronization deadlock, with a diagnosis of
// where every unfinished core is stuck).
func (m *Machine) Run(limit uint64) error {
	return m.RunContext(nil, limit)
}

// ctxPollMask amortizes context polling in the run loop: the Done
// channel is sampled once every ctxPollMask+1 kernel events (~30 us of
// wall time on the allocation-free hot path), keeping cancellation
// latency negligible without putting a select on the per-event path.
const ctxPollMask = 1023

// RunContext is Run with cooperative cancellation: ctx is polled between
// kernel events, and a canceled run stops within ~1k events and fails
// with an error matching both ErrCanceled and ctx.Err(). A nil ctx
// behaves exactly like Run. When the watchdog is armed, a run with no
// global progress for the watchdog window fails with a *NoProgressError
// (matching ErrNoProgress) carrying a per-core dump; when invariant
// checks are enabled (always under chaos), a violated invariant fails
// with an *InvariantError (matching ErrInvariant). Any stop leaves the
// machine in a consistent (if unfinished) state: Stats and Diagnose
// remain usable.
func (m *Machine) RunContext(ctx context.Context, limit uint64) error {
	end := limit + 1
	if limit == 0 {
		end = math.MaxUint64
	}
	done, err := m.advance(ctx, end)
	if done || err != nil {
		return err
	}
	// Paused: events remain past the limit, or only parked spin loops
	// remain, and they would spin on to it.
	cause := errSpinForever
	if limit != 0 {
		m.K.AdvanceTo(limit)
		m.passTo(limit + 1) // the limit cycle itself ran
		cause = sim.ErrLimit
	}
	return fmt.Errorf("machine: %d/%d cores finished at cycle %d: %w\n%s",
		m.finished, m.loaded, m.K.Now(), cause, m.Diagnose())
}

// monitor is the run loop's state between events: the context it polls,
// the events it has counted, the watchdog's last progress sample and the
// cycle it was taken, and the error that stopped the run. It lives on
// the machine, so the watchdog window spans RunToCycle calls.
type monitor struct {
	ctx      context.Context
	polls    uint
	sampled  bool
	progress uint64
	since    uint64
	err      error
}

// advance is the machine's one run loop: it fires every event before
// cycle end, checking after each one whether to stop (see stop). It
// returns done when every core has finished; the monitor's error when
// the context, an invariant check or the watchdog stopped the run; a
// deadlock error when the queue drained and no spin loop is parked; and
// otherwise a pause, with the clock on the last fired event.
func (m *Machine) advance(ctx context.Context, end uint64) (done bool, err error) {
	if m.loaded == 0 {
		return false, fmt.Errorf("machine: no programs loaded")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, canceledError{err}
		}
	}
	m.mon.ctx = ctx
	m.K.RunToBoundary(end, m.stop)
	m.mon.ctx = nil // a paused machine keeps no caller's context
	if err := m.mon.err; err != nil {
		m.mon.err = nil
		return false, err
	}
	if m.finished == m.loaded {
		return true, nil
	}
	if m.K.Pending() == 0 && !m.parked() {
		return false, fmt.Errorf("machine: %d/%d cores finished and event queue drained at cycle %d (deadlock)\n%s",
			m.finished, m.loaded, m.K.Now(), m.Diagnose())
	}
	return false, nil
}

// stop is the run loop's check after every event: true when every core
// has finished, or when poll, run every ctxPollMask+1 events, stops the
// run.
//
//cbsim:hotpath
func (m *Machine) stop() bool {
	if m.finished == m.loaded {
		return true
	}
	if m.mon.polls++; m.mon.polls&ctxPollMask != 0 {
		return false
	}
	return m.poll()
}

// poll is stop's cold half. It stops the run when the context is done
// and, every wdPollMask+1 events, when an invariant is violated or the
// watchdog window passed without progress, leaving the reason in
// m.mon.err.
func (m *Machine) poll() bool {
	if ctx := m.mon.ctx; ctx != nil {
		select {
		case <-ctx.Done():
			m.mon.err = canceledError{ctx.Err()}
			return true
		default:
		}
	}
	if m.mon.polls&wdPollMask != 0 {
		return false
	}
	if m.checkInv {
		if err := m.CheckInvariants(false); err != nil {
			m.mon.err = err
			return true
		}
	}
	if w := m.watchdog; w > 0 {
		if cur := m.progress(); !m.mon.sampled || cur != m.mon.progress {
			m.mon.sampled, m.mon.progress, m.mon.since = true, cur, m.K.Now()
		} else if m.K.Now()-m.mon.since >= w {
			m.mon.err = m.noProgressError(w)
			return true
		}
	}
	return false
}

// errSpinForever reports a run without a cycle limit in which every
// unfinished core spins on a line no message will ever change.
var errSpinForever = errors.New("machine: cores spin forever and no cycle limit is set")

// settle applies the effects of the events the kernel passed for parked
// spin loops (see cpu.Core.Settle). Everything that reads core or L1
// state mid-run settles first.
func (m *Machine) settle() {
	for _, c := range m.Cores {
		c.Settle()
	}
}

// passTo passes and settles every parked spin-loop event before cycle h:
// a run that stops at a pause or a limit has fired those events.
func (m *Machine) passTo(h uint64) {
	m.K.PassGhosts(h)
	m.settle()
}

// parked reports whether some core is parked in a spin loop.
func (m *Machine) parked() bool {
	for _, c := range m.Cores {
		if c.Parked() {
			return true
		}
	}
	return false
}

// Diagnose reports where every unfinished core is stuck and what is
// parked in the callback directories — the first thing to read when a
// run deadlocks.
func (m *Machine) Diagnose() string {
	m.settle()
	var b strings.Builder
	for i, c := range m.Cores {
		if c.Done() {
			continue
		}
		dis := c.Disasm()
		if dis == "" {
			fmt.Fprintf(&b, "  core %2d: no program\n", i)
			continue
		}
		fmt.Fprintf(&b, "  core %2d: pc=%d  %s\n", i, c.PC(), dis)
	}
	for i, t := range m.vipsTiles {
		if n := t.Bank.Parked(); n > 0 {
			fmt.Fprintf(&b, "  bank %2d: %d operations parked in the callback directory\n", i, n)
		}
	}
	if b.Len() == 0 {
		return "  (all cores report done; events still pending)"
	}
	return b.String()
}
