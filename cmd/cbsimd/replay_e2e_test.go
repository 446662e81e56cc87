package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/service"
)

// TestReplayE2E is the time-travel acceptance test over the wire: build
// the real daemon, run a checkpointed job, replay windows of it over
// HTTP, and diff the full-window replayed trace against the trace of an
// ordinary traced run of the identical cell — they must be
// byte-identical, because a replay is a verified re-execution of the
// same deterministic run.
func TestReplayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cbsimd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cbsimd: %v\n%s", err, out)
	}
	proc, url := startDaemon(t, bin, filepath.Join(dir, "journal.ndjson"), "2")
	defer func() {
		proc.Process.Kill()
		proc.Wait()
	}()

	ck := submitJob(t, url, service.JobRequest{
		Benchmark: "fft", Setup: "CB-One", Cores: 4,
		Checkpoints: true, CheckpointInterval: 2048,
	})
	waitForState(t, url, ck, service.StateDone, 60*time.Second)

	body, code := httpGet(t, url+"/v1/jobs/"+ck+"/replay")
	if code != http.StatusOK {
		t.Fatalf("replay = %d: %s", code, body)
	}
	var full service.ReplayResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.End == 0 || full.Stats.Cycles == 0 {
		t.Fatalf("replay reports an empty run: %+v", full)
	}

	// A sub-window, traced twice: byte-identical (each request rebuilds
	// the cell from cycle 0).
	win := "/v1/jobs/" + ck + "/replay?from=" + u64(full.End/4) + "&to=" + u64(full.End/2) + "&trace=true"
	w1, code := httpGet(t, url+win)
	if code != http.StatusOK {
		t.Fatalf("window trace = %d: %s", code, w1)
	}
	w2, _ := httpGet(t, url+win)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("replayed window trace differs across requests: %d vs %d bytes", len(w1), len(w2))
	}

	// The decisive diff: full-window replayed trace vs the trace of an
	// ordinary traced run of the same cell, submitted as its own job.
	tr := submitJob(t, url, service.JobRequest{
		Benchmark: "fft", Setup: "CB-One", Cores: 4, Trace: true,
	})
	waitForState(t, url, tr, service.StateDone, 60*time.Second)
	direct, code := httpGet(t, url+"/v1/jobs/"+tr+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, direct)
	}
	replayed, code := httpGet(t, url+"/v1/jobs/"+ck+"/replay?from=0&to="+u64(full.End)+"&trace=true")
	if code != http.StatusOK {
		t.Fatalf("full-window trace = %d: %s", code, replayed)
	}
	if !bytes.Equal(direct, replayed) {
		t.Fatalf("replayed full-window trace differs from the directly traced run: %d vs %d bytes", len(direct), len(replayed))
	}

	// And the divergence probe: the checkpointed cell against another
	// setup must name a concrete first divergent cycle.
	bi, code := httpGet(t, url+"/v1/jobs/"+ck+"/bisect?against=Invalidation")
	if code != http.StatusOK {
		t.Fatalf("bisect = %d: %s", code, bi)
	}
	var rep service.BisectResponse
	if err := json.Unmarshal(bi, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || len(rep.Components) == 0 {
		t.Fatalf("CB-One vs Invalidation did not produce a located divergence:\n%s", rep.Report)
	}
	if rep.Scope != "arch" {
		t.Fatalf("cross-protocol bisect scope = %q, want arch", rep.Scope)
	}
}

func httpGet(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func u64(v uint64) string { return strconv.FormatUint(v, 10) }
