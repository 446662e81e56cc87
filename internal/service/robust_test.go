package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestCancelQueuedJobSkipsWorker pins the DELETE-before-start race: a
// job canceled while still queued must be finished as canceled
// immediately, the worker that later dequeues it must skip it (never
// flipping it to running), and the worker must stay available for
// subsequent jobs. Run under -race in CI.
func TestCancelQueuedJobSkipsWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallelism: 1})

	// Occupy the single worker with a long sweep.
	blocker, code := submit(t, ts, JobRequest{Setups: []string{"CB-One"}, Cores: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker = %d", code)
	}
	waitState(t, ts, blocker.ID, StateRunning)

	// Queue a second job and cancel it before any worker can touch it.
	queued, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit queued = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The cancellation is synchronous for queued jobs: no waiting for a
	// worker.
	st := getStatus(t, ts, queued.ID)
	if st.State != StateCanceled || !strings.Contains(st.Error, "before start") {
		t.Fatalf("canceled queued job = %+v", st)
	}

	// Free the worker and push another job through: the worker must have
	// skipped the canceled job, not run it or died on it.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	after, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancel = %d", code)
	}
	waitState(t, ts, after.ID, StateDone)

	// The canceled job never ran: still canceled, zero cells done.
	st = getStatus(t, ts, queued.ID)
	if st.State != StateCanceled || st.CellsDone != 0 {
		t.Fatalf("skipped job mutated: %+v", st)
	}
}

// TestPanicIsolatedToJob feeds the worker a job whose cell panics inside
// the simulator (non-square core count smuggled past validation) and
// expects that job to fail with the panic message while the daemon keeps
// serving.
func TestPanicIsolatedToJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Parallelism: 1})

	// Build the poisoned job directly (the HTTP API validates cores).
	cells := []CellSpec{{Benchmark: "fft", Setup: "CB-One", Cores: 7, Style: "scalable", Entries: 4, Limit: 1_000_000}}
	j := s.makeJob("job-poison", JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}, cells)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.jobsCh <- j

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, j.id)
		if terminalState(st.State) {
			if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
				t.Fatalf("poisoned job = %+v, want failed with panic message", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poisoned job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The daemon survived: the same worker completes the next job.
	after, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit after panic = %d", code)
	}
	waitState(t, ts, after.ID, StateDone)
}

// Backpressure responses carry jittered Retry-After hints so rejected
// clients don't retry in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	seen := make(map[string]bool)
	for i := 0; i < 8; i++ {
		v := s.retryAfter()
		n, err := time.ParseDuration(v + "s")
		if err != nil || n < time.Second || n > 4*time.Second {
			t.Fatalf("retryAfter() = %q, want 1..4 seconds", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("retryAfter never varied: %v", seen)
	}
}

// TestRetryableRejectionHeaders pins the shared backpressure contract:
// both retryable rejections — 429 when the queue is full and 503 while
// draining — go through the same helper and therefore both carry a
// jittered Retry-After header (1-4 seconds) and a retryable error body.
func TestRetryableRejectionHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Parallelism: 1})

	postJob := func(req JobRequest) *http.Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	checkRetryable := func(resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantCode)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := time.ParseDuration(ra + "s")
		if err != nil || secs < time.Second || secs > 4*time.Second {
			t.Fatalf("%d rejection Retry-After = %q, want 1..4 seconds", wantCode, ra)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		if !apiErr.Retryable || apiErr.Error == "" {
			t.Fatalf("%d rejection body = %+v, want retryable with message", wantCode, apiErr)
		}
	}

	// Occupy the only worker and the one queue slot.
	blocker, code := submit(t, ts, JobRequest{Setups: []string{"CB-One"}, Cores: 16})
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker = %d", code)
	}
	waitState(t, ts, blocker.ID, StateRunning)
	queued, code := submit(t, ts, JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit queued = %d", code)
	}

	// Queue full: 429 with the shared retryable shape.
	checkRetryable(postJob(JobRequest{Benchmark: "lu", Setup: "CB-One", Cores: 4}), http.StatusTooManyRequests)

	// Empty the server and drain it: 503 with the same shape.
	for _, id := range []string{blocker.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkRetryable(postJob(JobRequest{Benchmark: "fft", Setup: "CB-One", Cores: 4}), http.StatusServiceUnavailable)
}

// TestFinishJournalsBeforePublishing pins the terminal transition's
// order: onFinish (the journal's done record) runs before the terminal
// state is published, so a client that sees a job finished can read its
// journal record. While onFinish blocks, neither the status nor the
// event stream shows a terminal state, and a competing transition loses.
func TestFinishJournalsBeforePublishing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	j := newJob("job-000001", []CellSpec{{}}, 1, ctx, cancel)
	entered, release := make(chan string, 1), make(chan struct{})
	calls := 0
	j.onFinish = func(state string) {
		calls++
		entered <- state
		<-release
	}
	won := make(chan bool)
	go func() { won <- j.finishFrom("", StateDone, "") }()
	if state := <-entered; state != StateDone {
		t.Fatalf("onFinish(%q), want %q", state, StateDone)
	}
	if st := j.status(); terminalState(st.State) {
		t.Fatalf("status shows %q while the journal record is unwritten", st.State)
	}
	evs, terminal, _ := j.eventsSince(0)
	if terminal {
		t.Fatal("event stream is terminal while the journal record is unwritten")
	}
	for _, e := range evs {
		if e.Type == "job_"+StateDone {
			t.Fatalf("event %q published while the journal record is unwritten", e.Type)
		}
	}
	if j.finishFrom("", StateCanceled, "late cancel") {
		t.Fatal("a second terminal transition won while the first was journaling")
	}
	if j.start() {
		t.Fatal("a finishing job started")
	}

	close(release)
	if !<-won {
		t.Fatal("the first terminal transition lost")
	}
	if st := j.status(); st.State != StateDone {
		t.Fatalf("status after finish = %q, want %q", st.State, StateDone)
	}
	evs, terminal, _ = j.eventsSince(0)
	if !terminal || evs[len(evs)-1].Type != "job_"+StateDone {
		t.Fatalf("event stream after finish: terminal=%v, events %+v", terminal, evs)
	}
	if calls != 1 {
		t.Fatalf("onFinish ran %d times, want 1", calls)
	}
}
