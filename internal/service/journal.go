package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The job journal makes the daemon crash-consistent: every accepted job
// is recorded before the client sees 202, every terminal transition is
// recorded when it happens, and on boot the journal is replayed —
// submitted jobs without a terminal record (queued or running when the
// process died) are re-enqueued under their original IDs. The journal is
// append-only NDJSON, one record per line, fsynced per append; a torn
// final line (crash mid-write) is tolerated and ignored on replay.

// JournalRecord is one NDJSON line of the job journal.
type JournalRecord struct {
	// Op is "submit" (job accepted; Req holds the original request) or
	// "done" (job reached a terminal state; State holds which).
	Op    string      `json:"op"`
	ID    string      `json:"id"`
	Req   *JobRequest `json:"req,omitempty"`
	State string      `json:"state,omitempty"`
}

// journal is the append side: a mutex-serialized NDJSON file synced on
// every record.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// openJournal reads back any existing journal at path (tolerating a
// torn final record), truncates any torn tail so future appends start on
// a record boundary, and opens the file for appending. torn counts the
// torn-tail records dropped during recovery (0 or 1), so the daemon can
// surface crash-corruption in /metrics instead of only logging it.
func openJournal(path string) (jl *journal, recs []JournalRecord, torn int, err error) {
	recs, validLen, torn, err := readJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: opening journal: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("service: truncating torn journal tail: %w", err)
		}
	}
	return &journal{f: f}, recs, torn, nil
}

// readJournal parses the journal, returning its records, the byte
// length of the valid prefix (everything up to and including the last
// parseable, newline-terminated record), and the number of torn tail
// records excluded. A torn final record — crash mid-append — is excluded
// from records and length; corruption anywhere earlier is an error,
// because whole-record appends cannot produce it.
func readJournal(path string) (recs []JournalRecord, validLen int64, torn int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("service: reading journal: %w", err)
	}
	line := 0
	for rest := data; len(rest) > 0; {
		idx := bytes.IndexByte(rest, '\n')
		if idx < 0 {
			torn++ // unterminated tail
			break
		}
		line++
		text := bytes.TrimSpace(rest[:idx])
		if len(text) > 0 {
			var r JournalRecord
			if err := json.Unmarshal(text, &r); err != nil {
				if idx == len(rest)-1 {
					torn++ // final line: torn (partial write that included the newline)
					break
				}
				return nil, 0, 0, fmt.Errorf("service: journal line %d corrupt: %v", line, err)
			}
			recs = append(recs, r)
		}
		validLen += int64(idx) + 1
		rest = rest[idx+1:]
	}
	return recs, validLen, torn, nil
}

// append durably records r: the line is written and fsynced before
// append returns, so a record the client observed survives kill -9.
func (jl *journal) append(r JournalRecord) error {
	if jl == nil {
		return nil
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	if _, err := jl.f.Write(data); err != nil {
		return err
	}
	return jl.f.Sync()
}

func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if !jl.closed {
		jl.closed = true
		jl.f.Close()
	}
}

// pendingJob is one journaled job that must be re-enqueued on boot.
type pendingJob struct {
	id  string
	req JobRequest
}

// replayJournal folds the record log into the set of jobs that never
// reached a terminal state (in submission order) and the highest job
// sequence number ever issued. Record order within one job is not
// guaranteed: the submit append races against a fast worker's done
// append, so a done record may precede its own submit.
func replayJournal(recs []JournalRecord) (pending []pendingJob, maxSeq uint64) {
	reqs := make(map[string]*JobRequest)
	done := make(map[string]bool)
	var order []string
	for _, r := range recs {
		switch r.Op {
		case "submit":
			if r.Req == nil || reqs[r.ID] != nil {
				continue
			}
			reqs[r.ID] = r.Req
			order = append(order, r.ID)
		case "done":
			done[r.ID] = true
		}
		if seq, ok := jobSeq(r.ID); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	for _, id := range order {
		if !done[id] {
			pending = append(pending, pendingJob{id: id, req: *reqs[id]})
		}
	}
	return pending, maxSeq
}
