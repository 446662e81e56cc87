package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// span is one host-time interval around a call into a layer. Spans of
// one cell or job share a trace id; parent is the enclosing span's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run
// ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) begin(trace, name string, parent int) int {
	return t.add(span{Parent: parent, Trace: trace, Name: name, Start: time.Since(t.t0).Nanoseconds()})
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotals accumulates per-layer measurements over traced cells.
type layerTotals struct {
	cells                                    int
	generate, verify, newM, run              time.Duration
	newBytes, mallocs, allocBytes            uint64
	events, wheel, heap, maxPending          uint64
	instructions, memOps, l1Acc, l1Hits      uint64
	llc, llcSync, cbDir, wakes, stale, evict uint64
	flitHops                                 uint64
}

// runLimit matches experiments.Options' default cycle budget.
const runLimit = 200_000_000

// tracedCell runs one cell step by step through the layers' public
// calls — workload.Generate, Verify, machine.New, Load, RunContext,
// Stats, Quiesce and CheckInvariants(true) — with a span around each.
// Its Result must be byte-identical to RunBenchmark's.
func (r *runner) tracedCell(c cell, lt *layerTotals) (experiments.Result, error) {
	t := r.tr
	root := t.begin(c.name(), "cell", 0)
	defer t.end(root)
	step := func(name string, fn func()) time.Duration {
		id := t.begin(c.name(), name, root)
		fn()
		return t.end(id)
	}
	lt.cells++
	var g *workload.Generated
	lt.generate += step("workload.generate", func() { g = workload.Generate(c.profile, c.cores, c.style, c.setup.Flavor()) })
	var err error
	lt.verify += step("verify", func() { err = g.Verify().Err() })
	if err != nil {
		return experiments.Result{}, fmt.Errorf("verify: %w", err)
	}
	cfg := machine.Default(c.setup.Protocol)
	cfg.Cores, cfg.BackoffLimit, cfg.CBEntriesPerBank = c.cores, c.setup.BackoffLimit, c.entries
	var m *machine.Machine
	a := readAllocs()
	lt.newM += step("machine.new", func() { m = machine.New(cfg, synclib.IsPrivate) })
	lt.newBytes += a.since().bytes
	step("machine.load", func() {
		for addr, v := range g.Layout.Init {
			m.Store.StoreWord(addr, v)
		}
		for tid, p := range g.Programs {
			m.Load(tid, p, nil)
		}
	})
	a = readAllocs()
	lt.run += step("sim.run", func() { err = m.RunContext(context.Background(), runLimit) })
	got := a.since()
	if err != nil {
		return experiments.Result{}, err
	}
	lt.mallocs += got.mallocs
	lt.allocBytes += got.bytes
	var res experiments.Result
	step("machine.stats", func() {
		st := m.Stats()
		res = experiments.Result{Stats: st, Energy: energy.Compute(energy.Counts{
			L1Accesses:      st.L1Accesses,
			LLCTagAccesses:  st.LLCAccesses - st.LLCDataAccesses,
			LLCDataAccesses: st.LLCDataAccesses,
			CBDirAccesses:   st.CBDirAccesses,
			FlitHops:        st.Net.FlitHops,
		}, energy.DefaultParams())}
	})
	// Stats are taken before Quiesce: draining in-flight acks afterwards
	// must not change what the untraced run reports.
	step("machine.check", func() {
		if err = m.Quiesce(1_000_000); err == nil {
			err = m.CheckInvariants(true)
		}
	})
	if err != nil {
		return experiments.Result{}, err
	}
	tele := m.K.Telemetry()
	lt.events += m.K.Executed()
	lt.wheel += tele.WheelPushes
	lt.heap += tele.HeapPushes
	lt.maxPending = max(lt.maxPending, tele.MaxPending)
	st := res.Stats
	lt.instructions += st.Instructions
	lt.memOps += st.MemOps
	lt.l1Acc += st.L1Accesses
	lt.l1Hits += st.L1Hits
	lt.llc += st.LLCAccesses
	lt.llcSync += st.LLCSyncAccesses
	lt.cbDir += st.CBDirAccesses
	lt.wakes += st.CBWakes
	lt.stale += st.CBStaleWakes
	lt.evict += st.CBEvictions
	lt.flitHops += st.Net.FlitHops
	return res, nil
}

// putLayers turns the totals into per-layer metrics. Times are per-cell
// means; counts are totals over the traced cells, which a seed fixes.
func (r *runner) putLayers(lt layerTotals) {
	n := float64(lt.cells)
	ev := float64(lt.events)
	r.m["workload.generate_ms"] = ms(lt.generate) / n
	r.m["verify.ms"] = ms(lt.verify) / n
	r.m["machine.new_ms"] = ms(lt.newM) / n
	r.m["machine.new_mb"] = float64(lt.newBytes) / (1 << 20) / n
	r.m["sim.events"] = ev
	r.m["sim.ns_per_event"] = float64(lt.run.Nanoseconds()) / ev
	r.m["sim.wheel_share"] = float64(lt.wheel) / float64(lt.wheel+lt.heap)
	r.m["sim.max_pending"] = float64(lt.maxPending)
	r.m["runtime.allocs_per_event"] = float64(lt.mallocs) / ev
	r.m["runtime.bytes_per_event"] = float64(lt.allocBytes) / ev
	r.m["cpu.instructions"] = float64(lt.instructions)
	r.m["cpu.mem_ops"] = float64(lt.memOps)
	r.m["cache.l1_hit_ratio"] = float64(lt.l1Hits) / float64(lt.l1Acc)
	r.m["mem.llc_accesses"] = float64(lt.llc)
	r.m["mem.llc_sync_accesses"] = float64(lt.llcSync)
	r.m["core.cb_dir_accesses"] = float64(lt.cbDir)
	r.m["core.cb_wakes"] = float64(lt.wakes)
	r.m["core.cb_evictions"] = float64(lt.evict)
	// Wakes and stale wakes are disjoint counters: a stale wake answers
	// a callback with an evicted entry's value instead of a new write.
	r.m["core.useful_wake_ratio"] = 1 - float64(lt.stale)/float64(lt.wakes+lt.stale)
	r.m["noc.flit_hops"] = float64(lt.flitHops)
}

// cpuClasses reads the runtime's cumulative GC and busy CPU seconds.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// calibrationStride picks the cells a traced sweep also runs untraced,
// right after the traced run, to measure the tracing overhead: every 5th,
// which spreads them over the setups of both sweeps.
const calibrationStride = 5

// tracedPipeline runs cells through tracedCell, under a CPU profile when
// sweep is set. Outputs are judged like an untraced pass's; service pool
// cells (sweep unset) are checked against the bytes the daemon served for
// them instead. A sweep also runs every calibrationStride-th cell through
// RunBenchmark to measure trace_overhead_frac; both runs' bytes must be
// identical.
func (r *runner) tracedPipeline(cells []cell, sweep bool) error {
	var lt layerTotals
	if sweep {
		f, err := os.Create(r.tracePrefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	gc0, busy0 := cpuClasses()
	var traced, untraced time.Duration
	for i, c := range cells {
		t0 := time.Now()
		res, err := r.tracedCell(c, &lt)
		d := time.Since(t0)
		name, golden := c.name(), sweep && r.seed == 0
		if !sweep {
			name += " result"
		}
		r.op(name+" (traced)", r.checkCell(name, res, err, golden))
		if sweep && i%calibrationStride == 0 {
			t0 = time.Now()
			res, err := experiments.RunBenchmark(c.profile, c.setup, c.style, c.options())
			untraced += time.Since(t0)
			traced += d
			r.op(name, r.checkCell(name, res, err, golden))
		}
	}
	gc1, busy1 := cpuClasses()
	if sweep {
		pprof.StopCPUProfile()
		r.m["trace_overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	}
	r.m["runtime.gc_cpu_frac"] = (gc1 - gc0) / (busy1 - busy0)
	r.putLayers(lt)
	return nil
}

// tracedSweep is a sweep workload's traced run: set-up, one traced pass
// with its calibration cells, then the probes shared by all traced runs.
func tracedSweep(r *runner, cellsFor func(uint64) []cell) error {
	cells := r.sweepSetup(cellsFor)
	if err := r.tracedPipeline(cells, true); err != nil {
		return err
	}
	r.passes++
	if err := r.foldFile(r.tracePrefix + ".cpu.pprof"); err != nil {
		return err
	}
	if err := r.serviceProbe(); err != nil {
		return err
	}
	return r.commonProbes()
}

// foldFile folds a CPU profile into the <bucket>.host_frac metrics.
func (r *runner) foldFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fracs, err := foldProfile(data)
	if err != nil {
		return err
	}
	for b, f := range fracs {
		r.m[b+".host_frac"] = f
	}
	return nil
}

// commonProbes runs the fixed probes every traced run ends with — the
// micro-programs and the observer-overhead pair — and writes the spans.
func (r *runner) commonProbes() error {
	r.runMicro()
	r.observerOverhead()
	return r.tr.write(r.tracePrefix + ".trace.json")
}

// observerCells is the fixed 16-core set observer overhead is measured on.
func observerCells() []cell {
	var cells []cell
	for _, name := range []string{"radiosity", "fft", "dedup"} {
		for _, s := range []string{"Invalidation", "CB-One"} {
			cells = append(cells, cell{mustProfile(name), mustSetup(s), workload.StyleScalable, serviceCores, 4})
		}
	}
	return cells
}

// observerRounds alternates runs with and without observers this many
// times; the overhead is the median round's ratio.
const observerRounds = 3

// observerOverhead times the observer cells through RunBenchmark with
// Options.Metrics attached (as every fresh daemon cell runs) and without
// it. Observers must not change results.
func (r *runner) observerOverhead() {
	cells := observerCells()
	var ratios []float64
	for round := 0; round < observerRounds; round++ {
		var with, without time.Duration
		for _, c := range cells {
			o := c.options()
			t0 := time.Now()
			plain, err := experiments.RunBenchmark(c.profile, c.setup, c.style, o)
			without += time.Since(t0)
			r.op("observer "+c.name(), r.checkCell(c.name()+" result", plain, err, false))
			o.Metrics = obs.NewSimMetrics(obs.NewRegistry())
			t0 = time.Now()
			observed, err := experiments.RunBenchmark(c.profile, c.setup, c.style, o)
			with += time.Since(t0)
			r.op("observed "+c.name(), r.checkCell(c.name()+" result", observed, err, false))
		}
		ratios = append(ratios, with.Seconds()/without.Seconds())
	}
	r.m["obs.observer_overhead_frac"] = median(ratios) - 1
}

// serviceLayers turns one traced service pass into service.* metrics and
// spans: submit, wait (events stream) and result per job.
func (r *runner) serviceLayers(p servicePass, names []string) {
	var submit, queue, result []float64
	var bodyBytes float64
	for k, j := range p.jobs {
		if j.err != nil {
			continue
		}
		trace := fmt.Sprintf("job-%d %s", k, names[j.cell])
		t0 := j.start.Sub(r.tr.t0).Nanoseconds()
		root := r.tr.add(span{Trace: trace, Name: "job", Start: t0, End: j.end.Sub(r.tr.t0).Nanoseconds()})
		r.tr.add(span{Parent: root, Trace: trace, Name: "service.submit", Start: t0, End: t0 + j.submit.Nanoseconds()})
		w0 := t0 + j.submit.Nanoseconds()
		r.tr.add(span{Parent: root, Trace: trace, Name: "service.wait", Start: w0, End: w0 + j.wait.Nanoseconds()})
		r.tr.add(span{Parent: root, Trace: trace, Name: "service.result", Start: j.end.Sub(r.tr.t0).Nanoseconds() - j.result.Nanoseconds(), End: j.end.Sub(r.tr.t0).Nanoseconds()})
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(j.queueWait))
		result = append(result, ms(j.result))
		bodyBytes += float64(j.bodyBytes)
	}
	pm := summarize(p)
	// Latency percentiles are per-layer, not end-to-end, metrics: their
	// run-to-run spread on a shared 2-vCPU VM (18-44% at a fixed seed
	// for the tails) is wider than any bound a comparison could use.
	r.m["service.fresh_p50_ms"] = median(pm.fresh)
	r.m["service.fresh_p95_ms"] = percentile(pm.fresh, 0.95)
	r.m["service.cached_p50_ms"] = median(pm.cached)
	r.m["service.cached_p99_ms"] = percentile(pm.cached, 0.99)
	r.m["service.submit_ms"] = median(submit)
	r.m["service.queue_wait_ms"] = median(queue)
	r.m["service.result_ms"] = median(result)
	r.m["service.result_kb"] = bodyBytes / 1024 / float64(len(submit))
	r.m["service.cache_hit_ratio"] = float64(len(pm.cached)) / float64(len(pm.all))
	r.m["service.dup_fresh_frac"] = float64(pm.freshN-pm.uniqueFresh) / float64(pm.freshN)
}

// Probe sizes: the sweeps do not use the service, so their traced runs
// measure the service layer on a fixed small mix of 4-core cells.
const (
	probeJobs  = 600
	probeCores = 4
)

// serviceProbe measures the service.* metrics for the sweep workloads.
func (r *runner) serviceProbe() error {
	reqs, names := servicePool()
	for i := range reqs {
		reqs[i].Cores = probeCores
		names[i] = "probe " + names[i]
	}
	d, _, err := startDaemon(false)
	if err != nil {
		return err
	}
	p := runPass(d.url, reqs, drawSequence(0, probeJobs, len(reqs)))
	d.stop()
	r.judge(p, names, false)
	r.serviceLayers(p, names)
	return nil
}

// pipelineStride picks the service pool cells the traced service-mix run
// also runs in-process, for the simulator's per-layer metrics: every 5th,
// which covers every setup and style.
const pipelineStride = 5

// tracedService is service-mix's traced run: an untraced pass, then a
// traced pass against a daemon serving its CPU profile, then the pool
// subset through the in-process pipeline, then the common probes.
func tracedService(r *runner) error {
	reqs, names := servicePool()
	seq := drawSequence(r.seed, serviceJobs, len(reqs))
	d, _, err := startDaemon(false)
	if err != nil {
		return err
	}
	plain := runPass(d.url, reqs, seq)
	d.stop()
	r.judge(plain, names, true)

	if d, _, err = startDaemon(true); err != nil {
		return err
	}
	// Profile the daemon for most of the pass: the untraced pass's
	// length, less a second.
	secs := max(1, int(plain.wall.Seconds())-1)
	profErr := make(chan error, 1)
	go func() { profErr <- fetchProfile(d.url, secs, r.tracePrefix+".cpu.pprof") }()
	traced := runPass(d.url, reqs, seq)
	err = <-profErr
	d.stop()
	if err != nil {
		return err
	}
	r.judge(traced, names, true)
	r.passes += 2
	r.serviceLayers(traced, names)
	r.m["trace_overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	if err := r.foldFile(r.tracePrefix + ".cpu.pprof"); err != nil {
		return err
	}

	var cells []cell
	pool := cellsOfPool()
	for i := 0; i < len(pool); i += pipelineStride {
		cells = append(cells, pool[i])
	}
	if err := r.tracedPipeline(cells, false); err != nil {
		return err
	}
	return r.commonProbes()
}

// fetchProfile saves the daemon's CPU profile over the next secs seconds.
func fetchProfile(base string, secs int, path string) error {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon profile: status %d: %s", resp.StatusCode, data)
	}
	return os.WriteFile(path, data, 0o644)
}
