package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if terminalState(st.State) {
			t.Fatalf("job %s reached %q (err %q) while waiting for %v", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %v", id, want)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) JobResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// metricValue extracts one counter from the /metrics text.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEndToEndCacheHit is the acceptance-criteria test: submitting the
// same single-cell job twice returns byte-identical Stats JSON, with the
// second request served from cache (verified via the cache-hit counter
// in /metrics) and no second simulation executed.
func TestEndToEndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Parallelism: 2})

	st, code := submit(t, ts, JobRequest{Benchmark: "dedup", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if st.Cells != 1 {
		t.Fatalf("cells = %d, want 1", st.Cells)
	}

	// Stream the full event log: it must narrate the job lifecycle and
	// terminate on its own when the job is done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("events content type = %q", got)
	}
	var types []string
	var cellDone Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, e.Type)
		if e.Type == "cell_done" {
			cellDone = e
		}
	}
	resp.Body.Close()
	want := []string{"job_queued", "job_started", "cell_start", "cell_done", "job_done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event stream = %v, want %v", types, want)
	}
	if cellDone.Cycles == 0 || cellDone.Cached {
		t.Fatalf("first cell_done should be a fresh simulation with cycles: %+v", cellDone)
	}

	res1 := getResult(t, ts, st.ID)
	if len(res1.Cells) != 1 || res1.Cells[0].Cached {
		t.Fatalf("first result: %+v", res1)
	}
	if sims := metricValue(t, ts, "cbsimd_cells_simulated_total"); sims != 1 {
		t.Fatalf("cells_simulated_total = %v, want 1", sims)
	}

	// Second submission: an equivalent spec with defaults spelled out
	// (and the style in a different case) must hit the cache.
	st2, code := submit(t, ts, JobRequest{
		Benchmarks: []string{"dedup"}, Setups: []string{"CB-One"},
		Cores: 4, Style: "SCALABLE", Entries: 4, LimitCycles: DefaultLimitCycles,
	})
	if code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", code)
	}
	waitState(t, ts, st2.ID, StateDone)
	res2 := getResult(t, ts, st2.ID)
	if !res2.Cells[0].Cached {
		t.Fatal("second run was not served from cache")
	}
	if !bytes.Equal(res1.Cells[0].Data, res2.Cells[0].Data) {
		t.Fatalf("cached result is not byte-identical:\n%s\nvs\n%s",
			res1.Cells[0].Data, res2.Cells[0].Data)
	}
	if hits := metricValue(t, ts, "cbsimd_cache_hits_total"); hits != 1 {
		t.Fatalf("cache_hits_total = %v, want 1", hits)
	}
	if sims := metricValue(t, ts, "cbsimd_cells_simulated_total"); sims != 1 {
		t.Fatalf("second simulation executed: cells_simulated_total = %v", sims)
	}
	if cached := metricValue(t, ts, "cbsimd_cells_cached_total"); cached != 1 {
		t.Fatalf("cells_cached_total = %v, want 1", cached)
	}

	// The payload actually contains the stats a client would read.
	var payload cellPayload
	if err := json.Unmarshal(res2.Cells[0].Data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Stats.Cycles == 0 || payload.Energy.Total() <= 0 {
		t.Fatalf("degenerate payload: %+v", payload)
	}
	if payload.Spec.Cores != 4 || payload.Spec.Style != "scalable" {
		t.Fatalf("payload spec not normalized: %+v", payload.Spec)
	}
}

// TestQueueBackpressureAndDrain exercises the 429 bound and the graceful
// drain: running cells finish, queued jobs fail retryable, and new
// submissions are rejected while draining. A drained job is then
// re-POSTed unchanged to a second server, where it completes and reuses
// that server's cache byte for byte.
func TestQueueBackpressureAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Parallelism: 1})

	// One cell of the sweep below, simulated fresh here: the reference
	// bytes for the re-POST at the end.
	warmReq := JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 16}
	warm, code := submit(t, ts, warmReq)
	if code != http.StatusAccepted {
		t.Fatalf("warm = %d", code)
	}
	waitState(t, ts, warm.ID, StateDone)
	refBytes := getResult(t, ts, warm.ID).Cells[0].Data

	// A long sweep keeps the single worker busy: 19 benchmarks x CB-One.
	sweepReq := JobRequest{Setups: []string{"CB-One"}, Cores: 16}
	stA, code := submit(t, ts, sweepReq)
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	waitState(t, ts, stA.ID, StateRunning)

	stB, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit B = %d", code)
	}
	_, code = submit(t, ts, JobRequest{Benchmark: "lu", Setup: "CB-One", Cores: 4})
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", code)
	}

	// Wait until A has completed at least one cell, so the drain has an
	// in-flight sweep to stop partway.
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, stA.ID).CellsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job A never completed a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	a := getStatus(t, ts, stA.ID)
	if a.State != StateRetryable || !a.Retryable {
		t.Fatalf("drained running job A = %+v, want retryable", a)
	}
	if a.CellsDone == 0 || a.CellsDone >= a.Cells {
		t.Fatalf("job A should have drained partway: %d/%d cells", a.CellsDone, a.Cells)
	}
	b := getStatus(t, ts, stB.ID)
	if b.State != StateRetryable || !b.Retryable {
		t.Fatalf("queued job B = %+v, want retryable", b)
	}
	if _, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	if d := metricValue(t, ts, "cbsimd_draining"); d != 1 {
		t.Fatalf("draining gauge = %v", d)
	}

	// Re-POST the drained sweep unchanged to server B, which has warmed
	// the fft cell: the sweep completes there, and the warm cell is a
	// cache hit with A's fresh bytes. Cached == fresh across servers.
	_, tsB := newTestServer(t, Config{Workers: 2, QueueDepth: 4, Parallelism: 2})
	warmB, code := submit(t, tsB, warmReq)
	if code != http.StatusAccepted {
		t.Fatalf("warm B = %d", code)
	}
	waitState(t, tsB, warmB.ID, StateDone)
	again, code := submit(t, tsB, sweepReq)
	if code != http.StatusAccepted {
		t.Fatalf("re-POST of drained sweep = %d", code)
	}
	waitState(t, tsB, again.ID, StateDone)
	var matched bool
	for _, cell := range getResult(t, tsB, again.ID).Cells {
		var pl cellPayload
		if err := json.Unmarshal(cell.Data, &pl); err != nil {
			t.Fatal(err)
		}
		if pl.Spec.Benchmark != "fft" {
			continue
		}
		if !cell.Cached {
			t.Fatal("warmed fft cell was re-simulated, not served from cache")
		}
		if !bytes.Equal(cell.Data, refBytes) {
			t.Fatalf("cached cell differs from A's fresh bytes:\n%s\nvs\n%s", cell.Data, refBytes)
		}
		matched = true
	}
	if !matched {
		t.Fatal("fft cell missing from the re-POSTed sweep")
	}
}

// TestCancelJob cancels a running sweep via DELETE and expects the
// canceled state to surface promptly (the simulator aborts between
// kernel events).
func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallelism: 1})
	st, code := submit(t, ts, JobRequest{Setups: []string{"Invalidation"}, Cores: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, ts, st.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := getStatus(t, ts, st.ID)
		if cur.State == StateCanceled {
			if !strings.Contains(cur.Error, "context canceled") {
				t.Fatalf("canceled job error = %q", cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never canceled: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A canceled job has no result.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", resp.StatusCode)
	}
}

func TestValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	cases := []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Benchmark: "no-such"}, "unknown"},
		{JobRequest{Benchmark: "fft", Cores: 7}, "perfect square"},
		{JobRequest{Benchmark: "fft", Cores: 81}, "at most 64"},
		{JobRequest{Benchmark: "fft", Style: "nope"}, "style"},
	}
	for _, c := range cases {
		body, _ := json.Marshal(c.req)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400", c.req, resp.StatusCode)
		}
		if !strings.Contains(apiErr.Error, c.want) {
			t.Errorf("%+v: error %q does not mention %q", c.req, apiErr.Error, c.want)
		}
	}
	// Unknown fields are rejected, not silently ignored.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmrk":"fft"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/events", "/v1/jobs/job-999999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	st, _ := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	waitState(t, ts, st.ID, StateDone)
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("job list = %+v", list.Jobs)
	}
}

// TestSweepJobOverlapsCache submits a 2x2 sweep after warming one of its
// cells: exactly three cells simulate, one is served from cache, and the
// job result carries all four.
func TestSweepJobOverlapsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallelism: 2})
	warm, _ := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	waitState(t, ts, warm.ID, StateDone)

	sweep, code := submit(t, ts, JobRequest{
		Benchmarks: []string{"fft", "lu"},
		Setups:     []string{"CB-One", "Invalidation"},
		Cores:      4,
	})
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", code)
	}
	fin := waitState(t, ts, sweep.ID, StateDone)
	if fin.Cells != 4 || fin.CellsDone != 4 {
		t.Fatalf("sweep status = %+v", fin)
	}
	if fin.CacheHits != 1 {
		t.Fatalf("sweep cache hits = %d, want 1", fin.CacheHits)
	}
	res := getResult(t, ts, sweep.ID)
	var cached int
	for _, c := range res.Cells {
		if c.Cached {
			cached++
		}
		var p cellPayload
		if err := json.Unmarshal(c.Data, &p); err != nil || p.Stats.Cycles == 0 {
			t.Fatalf("bad cell payload: %v %s", err, c.Data)
		}
	}
	if cached != 1 {
		t.Fatalf("cached cells = %d, want 1", cached)
	}
	if sims := metricValue(t, ts, "cbsimd_cells_simulated_total"); sims != 4 {
		t.Fatalf("cells_simulated_total = %v, want 4 (1 warm + 3 sweep)", sims)
	}
	if fmt.Sprint(metricValue(t, ts, "cbsimd_cache_hit_rate")) == "0" {
		t.Fatal("cache hit rate stayed 0")
	}
}
