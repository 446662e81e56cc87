package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/workload"
)

// service-mix: a closed loop of serviceClients clients, each waiting for
// its previous job's result before submitting the next, sends
// serviceJobs single-cell jobs drawn uniformly by seed from the 266-cell
// pool (19 profiles x 7 setups x 2 styles at 16 cores) to a fresh cbsimd.
// About 270 jobs miss the cache and simulate; the rest are cache hits.
const (
	serviceJobs    = 4000
	serviceClients = 2
	serviceCores   = 16
)

// cellsOfPool returns the service-mix pool.
func cellsOfPool() []cell {
	var cells []cell
	for _, p := range workload.Profiles() {
		for _, st := range styles {
			for _, s := range experiments.StandardSetups() {
				cells = append(cells, cell{p, s, st, serviceCores, 4})
			}
		}
	}
	return cells
}

// servicePool returns the pool's cells as job requests, with their names.
func servicePool() ([]service.JobRequest, []string) {
	var reqs []service.JobRequest
	var names []string
	for _, c := range cellsOfPool() {
		reqs = append(reqs, service.JobRequest{Benchmark: c.profile.Name, Setup: c.setup.Name, Cores: c.cores, Style: c.style.String()})
		names = append(names, c.name())
	}
	return reqs, names
}

// drawSequence returns n pool indices drawn uniformly from the seed.
func drawSequence(seed uint64, n, pool int) []int {
	seq := make([]int, n)
	state := seed
	for i := range seq {
		state += 0x9e3779b97f4a7c15
		seq[i] = int(splitmix64(state) % uint64(pool))
	}
	return seq
}

// daemon is one running cbsimd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process's stderr reaches EOF
	tail []string      // last stderr lines, for error reports
	mu   sync.Mutex
}

// startDaemon execs cbsimd on a loopback port and waits for its first
// /healthz 200; the returned duration is that set-up time.
func startDaemon(pprof bool) (*daemon, time.Duration, error) {
	t0 := time.Now()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-parallel", "1"}
	if pprof {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(cbsimdBin, args...)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cbsimd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case addr := <-addrCh:
		d.url = "http://" + addr
	case <-d.done:
		d.stop()
		return nil, 0, fmt.Errorf("cbsimd exited before listening: %s", d.stderrTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("cbsimd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("cbsimd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// peakRSS reads the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 30s, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.done
		_ = d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
}

// jobOut is one job's client-side measurements.
type jobOut struct {
	cell      int
	start     time.Time
	submit    time.Duration // POST /v1/jobs round trip
	queueWait time.Duration // POST start to the job_started event
	wait      time.Duration // events stream, until the terminal event
	result    time.Duration // GET /result round trip
	latency   time.Duration // POST start to the result body read
	end       time.Time
	cached    bool
	cycles    uint64
	data      []byte
	bodyBytes int
	err       error
}

// client submits jobs to one daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
	}}
}

// job submits req and waits for its single cell: POST, stream events to
// the terminal one, then read the result.
func (c *client) job(req service.JobRequest) jobOut {
	out := jobOut{start: time.Now()}
	fail := func(err error) jobOut {
		out.err = err
		out.end = time.Now()
		return out
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail(fmt.Errorf("submit: status %d: %v", resp.StatusCode, err))
	}
	out.submit = time.Since(out.start)

	t1 := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return fail(err)
	}
	dec := json.NewDecoder(resp.Body)
	var terminal string
	for {
		var e service.Event
		if err := dec.Decode(&e); err != nil {
			if !errors.Is(err, io.EOF) {
				resp.Body.Close()
				return fail(fmt.Errorf("events: %w", err))
			}
			break
		}
		switch e.Type {
		case "job_started":
			out.queueWait = time.Since(out.start)
		case "cell_done":
			out.cached, out.cycles = e.Cached, e.Cycles
		case "job_done", "job_failed", "job_canceled", "job_retryable":
			terminal = e.Type + " " + e.Error
		}
	}
	resp.Body.Close()
	out.wait = time.Since(t1)
	if !strings.HasPrefix(terminal, "job_done") {
		return fail(fmt.Errorf("job %s ended %q", st.ID, terminal))
	}

	t2 := time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return fail(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	out.result = out.end.Sub(t2)
	out.latency = out.end.Sub(out.start)
	out.bodyBytes = len(raw)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("result: status %d: %v", resp.StatusCode, err))
	}
	var jr service.JobResult
	if err := json.Unmarshal(raw, &jr); err != nil || len(jr.Cells) != 1 {
		return fail(fmt.Errorf("result: %d cells: %v", len(jr.Cells), err))
	}
	out.data = jr.Cells[0].Data
	return out
}

// servicePass is one closed-loop pass's outcome.
type servicePass struct {
	jobs []jobOut
	wall time.Duration
}

// runPass sends the sequence's jobs through the closed loop.
func runPass(base string, reqs []service.JobRequest, seq []int) servicePass {
	c := newClient(base)
	defer c.hc.CloseIdleConnections()
	outs := make([]jobOut, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(seq) {
					return
				}
				outs[k] = c.job(reqs[seq[k]])
				outs[k].cell = seq[k]
			}
		}()
	}
	wg.Wait()
	return servicePass{jobs: outs, wall: time.Since(start)}
}

// judge checks every job of a pass: it must succeed, its cell bytes must
// match the golden hash of that pool cell, and a cached cell must be
// byte-identical to the fresh one (checkOutput enforces both). Each
// cell's stats and energy are also re-encoded as an experiments.Result
// under "<name> result", so an in-process run of the cell can be checked
// against what the daemon served.
func (r *runner) judge(p servicePass, names []string, withGolden bool) {
	for _, j := range p.jobs {
		name := names[j.cell]
		err := j.err
		if err == nil {
			err = r.checkOutput(name, j.data, withGolden)
		}
		if _, seen := r.got[name+" result"]; err == nil && !seen {
			err = r.checkServedResult(name, j.data)
		}
		r.op(name, err)
	}
}

// checkServedResult hashes a daemon cell payload's stats and energy in
// experiments.Result form.
func (r *runner) checkServedResult(name string, data []byte) error {
	var payload struct {
		Stats  machine.Stats    `json:"stats"`
		Energy energy.Breakdown `json:"energy"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return fmt.Errorf("decoding cell payload: %w", err)
	}
	if err := sane(payload.Stats); err != nil {
		return err
	}
	res, err := json.Marshal(experiments.Result{Stats: payload.Stats, Energy: payload.Energy})
	if err != nil {
		return err
	}
	return r.checkOutput(name+" result", res, false)
}

// serviceSetup starts daemons until setupReps set-up times are measured
// and returns the last one running; setup_s is their median.
func (r *runner) serviceSetup() (*daemon, error) {
	var times []float64
	for i := 0; ; i++ {
		d, t, err := startDaemon(false)
		if err != nil {
			return nil, err
		}
		times = append(times, t.Seconds())
		if i == setupReps-1 {
			r.m["setup_s"] = median(times)
			return d, nil
		}
		d.stop()
	}
}

func summarize(p servicePass) passMetrics {
	pm := passMetrics{wall: p.wall.Seconds()}
	var cyc uint64
	seen := map[int]bool{}
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		lat := ms(j.latency)
		pm.all = append(pm.all, lat)
		if j.cached {
			pm.cached = append(pm.cached, lat)
			continue
		}
		pm.fresh = append(pm.fresh, lat)
		cyc += j.cycles
		pm.freshN++
		if !seen[j.cell] {
			seen[j.cell] = true
			pm.uniqueFresh++
		}
	}
	pm.rate = float64(cyc) / 1e6 / pm.wall
	return pm
}

// runService is the untraced service-mix run: set-up, then whole passes,
// each against a fresh daemon (an empty cache), while the next fits.
func runService(r *runner) error {
	reqs, names := servicePool()
	if r.update {
		return r.updateServiceGolden(reqs, names)
	}
	seq := drawSequence(r.seed, serviceJobs, len(reqs))
	d, err := r.serviceSetup()
	if err != nil {
		return err
	}
	var ps []passMetrics
	var rss []float64
	start := time.Now()
	for {
		if d == nil {
			if d, _, err = startDaemon(false); err != nil {
				return err
			}
		}
		p := runPass(d.url, reqs, seq)
		hwm, err := d.peakRSS()
		d.stop()
		d = nil
		if err != nil {
			return err
		}
		r.judge(p, names, true)
		ps = append(ps, summarize(p))
		rss = append(rss, hwm)
		if time.Since(start)+p.wall > r.budget {
			break
		}
	}
	r.putPasses(ps)
	r.m["peak_rss_mb"] = median(rss)
	return nil
}

// updateServiceGolden records the daemon's bytes for every pool cell:
// one job per cell against a fresh daemon.
func (r *runner) updateServiceGolden(reqs []service.JobRequest, names []string) error {
	d, _, err := startDaemon(false)
	if err != nil {
		return err
	}
	defer d.stop()
	seq := make([]int, len(reqs))
	for i := range seq {
		seq[i] = i
	}
	r.judge(runPass(d.url, reqs, seq), names, true)
	return nil
}
