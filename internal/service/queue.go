package service

import (
	"context"
	"sync"

	"repro/internal/replay"
)

// job is the server-side state of one submitted job: its normalized
// cells, per-job cancellation context, accumulated events (an append-only
// log replayed to every /events streamer), and per-cell results.
type job struct {
	id    string
	cells []CellSpec
	par   int // cell parallelism inside this job

	ctx    context.Context
	cancel context.CancelFunc

	// traceWanted marks single-cell jobs that requested a Chrome trace;
	// traceData holds the rendered JSON once the cell completes.
	traceWanted bool

	// checkpoints marks single-cell jobs that requested a time-travel
	// recording; ckInterval is the requested mark cadence (0 = default).
	checkpoints bool
	ckInterval  uint64

	// onFinish, when set, is called exactly once with the terminal state
	// (outside j.mu), before the state is published — the server uses
	// it to journal the transition.
	onFinish func(state string)

	mu    sync.Mutex
	state string
	// finishing is set by the finishFrom call that wins the terminal
	// transition, before onFinish runs; the state stays unpublished
	// until it returns.
	finishing bool
	err       string
	retryable bool
	cellsDone int
	cacheHits int
	events    []Event
	notify    chan struct{} // closed and replaced on every append
	results   []CellResult  // indexed by cell, filled as cells complete
	traceData []byte
	rec       *replay.Recording // checkpointed jobs, once the cell completes
}

// setRecording stores the completed cell's time-travel recording.
func (j *job) setRecording(r *replay.Recording) {
	j.mu.Lock()
	j.rec = r
	j.mu.Unlock()
}

// recording returns the stored recording, if the cell has completed.
func (j *job) recording() *replay.Recording {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// setTrace stores the rendered Chrome trace.
func (j *job) setTrace(data []byte) {
	j.mu.Lock()
	j.traceData = data
	j.mu.Unlock()
}

// traceBytes returns the stored Chrome trace, if any.
func (j *job) traceBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceData
}

func newJob(id string, cells []CellSpec, par int, ctx context.Context, cancel context.CancelFunc) *job {
	j := &job{
		id: id, cells: cells, par: par,
		ctx: ctx, cancel: cancel,
		state:   StateQueued,
		notify:  make(chan struct{}),
		results: make([]CellResult, len(cells)),
	}
	j.emit(Event{Type: "job_queued", Job: id, Cells: len(cells)})
	return j
}

// emit appends an event and wakes every streamer. Callers must not hold
// j.mu.
func (j *job) emit(e Event) {
	j.mu.Lock()
	j.appendLocked(e)
	j.mu.Unlock()
}

func (j *job) appendLocked(e Event) {
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
}

// start transitions the job to running. It reports false — and does
// nothing — when the job is already terminal (canceled while queued), so
// the worker that dequeues it skips it instead of resurrecting it.
func (j *job) start() bool {
	j.mu.Lock()
	if j.finishing {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.appendLocked(Event{Type: "job_started", Job: j.id, Cells: len(j.cells)})
	j.mu.Unlock()
	return true
}

// finish records the terminal state (one of done/failed/canceled/
// retryable) with its matching final event, exactly once.
func (j *job) finish(state, errMsg string) {
	j.finishFrom("", state, errMsg)
}

// finishFrom is finish restricted to jobs currently in state from (""
// means any non-terminal state). It reports whether this call performed
// the transition. The restriction makes "cancel a job that is still
// queued" atomic: either the job is finished as canceled before any
// worker touches it, or the worker already started it and the regular
// cancellation path (context observed between kernel events) takes over
// — never both, and never a zombie worker running a canceled job.
//
// The winning call journals before it publishes: onFinish runs before
// the state and its final event become visible, so a client that sees
// a terminal state can also read its journal record.
func (j *job) finishFrom(from, state, errMsg string) bool {
	j.mu.Lock()
	if j.finishing || (from != "" && j.state != from) {
		j.mu.Unlock()
		return false
	}
	j.finishing = true
	j.mu.Unlock()
	if j.onFinish != nil {
		j.onFinish(state)
	}
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.retryable = state == StateRetryable
	j.appendLocked(Event{Type: "job_" + state, Job: j.id, Cells: len(j.cells), Error: errMsg})
	j.mu.Unlock()
	j.cancel() // release the job context (and its timeout timer)
	return true
}

func terminalState(s string) bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateRetryable:
		return true
	}
	return false
}

// cellDone records one completed cell's result and progress event.
func (j *job) cellDone(i int, res CellResult, e Event) {
	j.mu.Lock()
	j.results[i] = res
	j.cellsDone++
	if res.Cached {
		j.cacheHits++
	}
	j.appendLocked(e)
	j.mu.Unlock()
}

// status snapshots the client-visible state.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		State:     j.state,
		Cells:     len(j.cells),
		CellsDone: j.cellsDone,
		CacheHits: j.cacheHits,
		Error:     j.err,
		Retryable: j.retryable,
	}
}

// result returns the job's full result once it is done.
func (j *job) result() (JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return JobResult{}, false
	}
	cells := make([]CellResult, len(j.results))
	copy(cells, j.results)
	return JobResult{ID: j.id, Cells: cells}, true
}

// eventsSince returns the events appended at or after index i, whether
// the job has reached a terminal state, and — when there is nothing new
// yet — a channel that closes on the next append. When terminal is true
// the returned slice completes the log: no further events will follow.
func (j *job) eventsSince(i int) (evs []Event, terminal bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal = terminalState(j.state)
	if i < len(j.events) {
		evs = make([]Event, len(j.events)-i)
		copy(evs, j.events[i:])
		return evs, terminal, nil
	}
	return nil, terminal, j.notify
}
