package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Spill support: a recording's mark stream and metadata persisted as a
// versioned JSON blob. The live replay cursors are paused machines and
// cannot leave the process; what spills is everything needed to check a
// later re-execution against this recording (or to anchor a bisection
// across process restarts): the digest marks, the end boundary, and the
// final digest. Loading a spilled recording back into a replayable form
// is just Record with the same source — the spill then serves as the
// cross-run evidence that the rebuilt recording is the same run.

// SpillVersion is bumped whenever the blob layout or the digest
// definition changes; a reader refuses other versions rather than
// comparing incomparable digests. Version 2: digests fold whole 64-bit
// words per round and component stats are folded field-by-field instead
// of through their formatted image. Version 3: the deferred-checkpoint
// count is gone. Version 4: digests fold the in-flight memory operation
// state that used to live in closures (the core's request and serial,
// scheduled L1 responses, pending directory grants, deferred messages).
// Version 5: digests fold the cores' spin-loop detector and park record
// and each MESI L1's count of messages in flight to it, and the kernel's
// scheduled-event count includes the events of parked spin loops.
const SpillVersion = 5

// Spill is the on-disk form of a recording's verification data.
type Spill struct {
	Version     int    `json:"version"`
	Label       string `json:"label"`
	Interval    uint64 `json:"interval"`
	Scope       string `json:"scope"`
	EndCycle    uint64 `json:"end_cycle"`
	FinalDigest uint64 `json:"final_digest"`
	Marks       []Mark `json:"marks"`
}

// spill writes the recording's blob into opts.SpillDir.
func (r *Recording) spill() error {
	blob := Spill{
		Version:     SpillVersion,
		Label:       r.src.Label,
		Interval:    r.opts.Interval,
		Scope:       r.opts.Scope.String(),
		EndCycle:    r.endCycle,
		FinalDigest: r.finalDigest,
		Marks:       r.marks,
	}
	data, err := json.MarshalIndent(&blob, "", "  ")
	if err != nil {
		return fmt.Errorf("replay: spill %s: %w", r.src.Label, err)
	}
	if err := os.MkdirAll(r.opts.SpillDir, 0o755); err != nil {
		return fmt.Errorf("replay: spill %s: %w", r.src.Label, err)
	}
	path := filepath.Join(r.opts.SpillDir, spillName(r.src.Label))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("replay: spill %s: %w", r.src.Label, err)
	}
	return nil
}

// spillName maps a source label to a filesystem-safe blob name.
func spillName(label string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, label)
	return s + ".replay.json"
}

// ReadSpill loads and version-checks a spilled recording blob.
func ReadSpill(path string) (*Spill, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay: read spill: %w", err)
	}
	var blob Spill
	if err := json.Unmarshal(data, &blob); err != nil {
		return nil, fmt.Errorf("replay: read spill %s: %w", path, err)
	}
	if blob.Version != SpillVersion {
		return nil, fmt.Errorf("replay: spill %s is version %d, this build reads %d", path, blob.Version, SpillVersion)
	}
	return &blob, nil
}
