package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// perJobRoutes are every route that names one job, as (method, path
// suffix after /v1/jobs/{id}).
var perJobRoutes = [][2]string{
	{http.MethodGet, ""},
	{http.MethodGet, "/events"},
	{http.MethodGet, "/result"},
	{http.MethodGet, "/trace"},
	{http.MethodGet, "/replay"},
	{http.MethodGet, "/bisect?against=CB-All"},
	{http.MethodGet, "/cycles"},
	{http.MethodDelete, ""},
}

// call sends one request and returns its status code, draining the body
// (an events stream ends once its job is terminal).
func call(t *testing.T, ts *httptest.Server, method, path string) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// runToEnd waits for job id to finish by reading its event stream to the
// end, and fails unless it finished done.
func runToEnd(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	if code := call(t, ts, http.MethodGet, "/v1/jobs/"+id+"/events"); code != http.StatusOK {
		t.Fatalf("events of %s = %d", id, code)
	}
	if st := getStatus(t, ts, id); st.State != StateDone {
		t.Fatalf("job %s = %+v, want done", id, st)
	}
}

// listedIDs returns the IDs GET /v1/jobs lists, in its order.
func listedIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(list.Jobs))
	for i, st := range list.Jobs {
		ids[i] = st.ID
	}
	return ids
}

// longSweep runs every benchmark under the four BackOff setups at 64
// cores: 76 cells, which hold their worker far longer than the tests
// that submit them run, so it stays running until they cancel it.
var longSweep = JobRequest{Setups: []string{"BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15"}, Cores: 64}

// TestRetainsLastFinishedJobs runs keep+k single-cell jobs one after
// another on one worker while the other runs a long sweep submitted
// first. The k that finished first are forgotten: every per-job route
// answers 410 Gone for them, while the retained jobs answer as before
// and IDs never issued answer 404. The list holds exactly the sweep and
// the retained jobs. With a second sweep running and a job queued
// behind it, jobs canceled while queued then push out the next oldest
// finished jobs, and the sweeps and the queued job stay.
func TestRetainsLastFinishedJobs(t *testing.T) {
	const k, depth = 3, 8
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: depth, Parallelism: 1})
	keep := len(s.finished)
	if keep != keepFinished {
		t.Fatalf("server keeps %d finished jobs, want %d", keep, keepFinished)
	}
	first, code := submit(t, ts, longSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep = %d", code)
	}
	waitState(t, ts, first.ID, StateRunning)

	plain := JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}
	n := keep + k
	var ids []string
	for i := range n {
		req := plain
		// The last three jobs open the routes a plain job answers 404 on.
		switch i {
		case n - 3:
			req.Trace = true
		case n - 2:
			req.Checkpoints = true
		case n - 1:
			req.Cycles = true
		}
		st, code := submit(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		runToEnd(t, ts, st.ID)
		ids = append(ids, st.ID)
	}

	for _, id := range ids[:k] {
		for _, r := range perJobRoutes {
			if code := call(t, ts, r[0], "/v1/jobs/"+id+r[1]); code != http.StatusGone {
				t.Errorf("forgotten %s %s%s = %d, want 410", r[0], id, r[1], code)
			}
		}
	}
	// "job-1" names the first job's sequence number but is not an ID
	// the daemon issues.
	for _, id := range []string{"job-999999", "job-000000", "job-1", "nonsense"} {
		for _, r := range perJobRoutes {
			if code := call(t, ts, r[0], "/v1/jobs/"+id+r[1]); code != http.StatusNotFound {
				t.Errorf("never issued %s %s%s = %d, want 404", r[0], id, r[1], code)
			}
		}
	}
	for _, id := range ids[k:] {
		for _, suffix := range []string{"", "/events", "/result"} {
			if code := call(t, ts, http.MethodGet, "/v1/jobs/"+id+suffix); code != http.StatusOK {
				t.Errorf("retained GET %s%s = %d, want 200", id, suffix, code)
			}
		}
	}
	for _, c := range []struct{ id, suffix string }{
		{ids[n-3], "/trace"},
		{ids[n-2], "/replay"},
		{ids[n-2], "/bisect?against=CB-All"},
		{ids[n-1], "/cycles"},
	} {
		if code := call(t, ts, http.MethodGet, "/v1/jobs/"+c.id+c.suffix); code != http.StatusOK {
			t.Errorf("retained GET %s%s = %d, want 200", c.id, c.suffix, code)
		}
	}
	if st := getStatus(t, ts, first.ID); st.State != StateRunning {
		t.Fatalf("first sweep = %+v after %d later finishes, want still running", st, n)
	}
	if got, want := listedIDs(t, ts), append([]string{first.ID}, ids[k:]...); !slices.Equal(got, want) {
		t.Fatalf("GET /v1/jobs lists %d jobs %v, want the sweep and the %d retained %v", len(got), got, n-k, ids[k:])
	}

	// With both workers pinned and one job queued behind them, the
	// queue's other slots take jobs canceled while queued: each finishes
	// without a worker and pushes out the oldest finished job.
	second, code := submit(t, ts, longSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit second sweep = %d", code)
	}
	waitState(t, ts, second.ID, StateRunning)
	queued, code := submit(t, ts, plain)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued = %d", code)
	}
	want := append([]string{first.ID}, ids[k+depth-1:]...)
	want = append(want, second.ID, queued.ID)
	for i := range depth - 1 {
		st, code := submit(t, ts, plain)
		if code != http.StatusAccepted {
			t.Fatalf("submit canceled %d = %d", i, code)
		}
		if code := call(t, ts, http.MethodDelete, "/v1/jobs/"+st.ID); code != http.StatusOK {
			t.Fatalf("cancel %s = %d", st.ID, code)
		}
		want = append(want, st.ID)
	}
	for _, c := range []struct{ id, state string }{
		{first.ID, StateRunning}, {second.ID, StateRunning}, {queued.ID, StateQueued},
	} {
		if st := getStatus(t, ts, c.id); st.State != c.state {
			t.Fatalf("%s = %+v, want still %s", c.id, st, c.state)
		}
	}
	for _, id := range ids[:k+depth-1] {
		if code := call(t, ts, http.MethodGet, "/v1/jobs/"+id); code != http.StatusGone {
			t.Errorf("GET %s = %d after %d later finishes, want 410", id, code, keep)
		}
	}
	if got := listedIDs(t, ts); !slices.Equal(got, want) {
		t.Fatalf("GET /v1/jobs lists %v, want %v", got, want)
	}
	for _, id := range []string{first.ID, second.ID} {
		if code := call(t, ts, http.MethodDelete, "/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("cancel sweep %s = %d", id, code)
		}
	}
}

// TestRetentionCoversFullQueue fills a queue deeper than keepFinished
// behind a running sweep, cancels the sweep and lets the queue drain:
// a server holds as many finished jobs as its queue and workers hold
// at once, so every job admitted together still has its result.
func TestRetentionCoversFullQueue(t *testing.T) {
	const depth = keepFinished + 8
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: depth, Parallelism: 1})
	if keep := len(s.finished); keep != depth+1 {
		t.Fatalf("server keeps %d finished jobs, want %d", keep, depth+1)
	}
	sweep, code := submit(t, ts, longSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep = %d", code)
	}
	waitState(t, ts, sweep.ID, StateRunning)
	plain := JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}
	var ids []string
	for i := range depth {
		st, code := submit(t, ts, plain)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	if _, code := submit(t, ts, plain); code != http.StatusTooManyRequests {
		t.Fatalf("submit to a full queue = %d, want 429", code)
	}
	if code := call(t, ts, http.MethodDelete, "/v1/jobs/"+sweep.ID); code != http.StatusOK {
		t.Fatalf("cancel sweep = %d", code)
	}
	runToEnd(t, ts, ids[depth-1])
	if st := getStatus(t, ts, sweep.ID); st.State != StateCanceled {
		t.Fatalf("sweep = %+v, want canceled", st)
	}
	for _, id := range ids {
		if code := call(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result"); code != http.StatusOK {
			t.Errorf("GET %s/result = %d once the queue drained, want 200", id, code)
		}
	}
}

// TestRetentionBoundedOverManyJobs drives 20,000 cache-hit jobs through
// SubmitJob from two closed-loop clients: the server never holds more
// than keepFinished finished jobs beside the ones in flight, and ends
// holding exactly keepFinished.
func TestRetentionBoundedOverManyJobs(t *testing.T) {
	const jobs, clients = 20_000, 2
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Parallelism: 1})
	if keep := len(s.finished); keep != keepFinished {
		t.Fatalf("server keeps %d finished jobs, want %d", keep, keepFinished)
	}
	req := JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}
	// held counts the jobs s holds and those of them not yet finished.
	held := func() (all, inFlight int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range s.jobs {
			if !terminalState(j.status().State) {
				inFlight++
			}
		}
		return len(s.jobs), inFlight
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs / clients {
				st, err := s.SubmitJob(req)
				if err != nil {
					errs <- err.Error()
					return
				}
				s.mu.Lock()
				j := s.jobs[st.ID]
				s.mu.Unlock()
				for {
					_, terminal, wake := j.eventsSince(math.MaxInt)
					if terminal {
						break
					}
					<-wake
				}
				if i%64 != 0 {
					continue
				}
				if all, inFlight := held(); all > keepFinished+inFlight {
					errs <- fmt.Sprintf("after job %d the server holds %d jobs, %d of them in flight", i, all, inFlight)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if all, inFlight := held(); all != keepFinished || inFlight != 0 {
		t.Fatalf("after %d jobs the server holds %d jobs, %d in flight; want %d finished", jobs, all, inFlight, keepFinished)
	}
}
