package replay

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/trace"
)

// This file is the divergence bisector: run two sources in lockstep,
// binary-search their digest-mark streams to the first disagreeing
// mark, then fine-scan per event boundary from the last agreeing mark
// to the exact first divergent cycle — reporting the cycle, the
// component digests that differ there, and the first differing trace
// event.

// Report is the outcome of a bisection.
type Report struct {
	ALabel, BLabel string
	// Scope is the digest scope used: ScopeFull when the two
	// configurations are DigestCompatible, ScopeArch otherwise.
	Scope machine.DigestScope
	// Interval is the mark cadence the coarse search ran at.
	Interval uint64
	// MarksCompared is the number of aligned digest marks examined.
	MarksCompared int

	// Diverged reports whether any difference was found. When false,
	// the two runs agreed at every compared boundary and at their ends.
	Diverged bool
	// Cycle is the first divergent cycle: the earliest cycle at which
	// the two machines did observably different things. Valid when
	// Diverged.
	Cycle uint64
	// Components names the component digests that differ at the
	// boundary just after Cycle (canonical machine order).
	Components []string
	// AEvent and BEvent render the first differing trace event of each
	// side ("" when the divergence is state-only, or when that side
	// emitted fewer events than the other).
	AEvent, BEvent string
	// AEnd and BEnd are the runs' end cycles (Stats.Cycles).
	AEnd, BEnd uint64
}

// String renders the report for the CLI.
func (rp *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bisect %s vs %s (scope %s, mark interval %d, %d marks)\n",
		rp.ALabel, rp.BLabel, rp.Scope, rp.Interval, rp.MarksCompared)
	if !rp.Diverged {
		fmt.Fprintf(&b, "no divergence: runs agree at every boundary (ends: %d vs %d cycles)\n", rp.AEnd, rp.BEnd)
		return b.String()
	}
	fmt.Fprintf(&b, "first divergent cycle: %d\n", rp.Cycle)
	fmt.Fprintf(&b, "differing components:  %s\n", strings.Join(rp.Components, ", "))
	if rp.AEvent != "" || rp.BEvent != "" {
		fmt.Fprintf(&b, "first differing event:\n")
		fmt.Fprintf(&b, "  %s: %s\n", rp.ALabel, orNone(rp.AEvent))
		fmt.Fprintf(&b, "  %s: %s\n", rp.BLabel, orNone(rp.BEvent))
	} else {
		fmt.Fprintf(&b, "state-only divergence (no trace event differs in the scanned window)\n")
	}
	fmt.Fprintf(&b, "run ends: %s %d cycles, %s %d cycles\n", rp.ALabel, rp.AEnd, rp.BLabel, rp.BEnd)
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "(no event)"
	}
	return s
}

// Bisect records both sources, locates the first divergent mark by
// binary search, and pins the exact first divergent cycle with a
// per-event-boundary lockstep scan. The digest scope is ScopeFull when
// the two configurations are DigestCompatible (e.g. chaos vs fault-free
// of the same setup, or wheel vs heap-only kernel) and ScopeArch
// otherwise (cross-protocol comparisons, where only architectural state
// is commensurable).
//
// Marks are taken every interval cycles (0 means DefaultInterval). ctx,
// when non-nil, cancels both recordings and the fine scan between
// kernel events.
//
// The verdict is sound only when both sources are seed-deterministic:
// the recorded mark stream must be the run the fine scan re-executes.
// Replay verifies that property as it goes and fails loudly on
// mismatch.
func Bisect(ctx context.Context, a, b Source, interval uint64) (*Report, error) {
	// Probe both configurations to pick the digest scope before
	// recording (marks are digested at record time).
	ma, err := a.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: build %s: %w", a.Label, err)
	}
	mb, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: build %s: %w", b.Label, err)
	}
	scope := machine.ScopeArch
	if machine.DigestCompatible(ma.Config(), mb.Config()) {
		scope = machine.ScopeFull
	}

	ra, err := record(ctx, ma, a, interval, scope)
	if err != nil {
		return nil, err
	}
	rb, err := record(ctx, mb, b, interval, scope)
	if err != nil {
		return nil, err
	}

	rp := &Report{
		ALabel: a.Label, BLabel: b.Label,
		Scope: scope, Interval: ra.interval,
		AEnd: ra.stats.Cycles, BEnd: rb.stats.Cycles,
	}

	// Coarse: binary-search the aligned mark streams for the first
	// disagreeing index. Divergence is monotone — every digest folds
	// cumulative counters (events executed, per-component stats), so
	// two runs that have done different things never re-collide.
	n := len(ra.marks)
	if len(rb.marks) < n {
		n = len(rb.marks)
	}
	rp.MarksCompared = n
	first := sort.Search(n, func(i int) bool {
		return ra.marks[i].Digest != rb.marks[i].Digest
	})

	if first == n && ra.endCycle == rb.endCycle &&
		len(ra.marks) == len(rb.marks) && ra.finalDigest == rb.finalDigest {
		return rp, nil // byte-identical runs
	}
	// Fine: lockstep per-event-boundary scan from the last agreeing
	// mark. Jumps both machines to their common next event boundary,
	// so empty cycles cost nothing.
	anchorIdx := first - 1
	if first == 0 {
		anchorIdx = 0
	}
	anchor := ra.marks[anchorIdx].Cycle
	if err := fineScan(ctx, rp, ra, rb, anchor); err != nil {
		return nil, err
	}
	return rp, nil
}

// eventLog collects trace events during the fine scan.
type eventLog struct {
	events []trace.Event
}

func (l *eventLog) Kinds() trace.Mask  { return trace.TraceKinds }
func (l *eventLog) Emit(e trace.Event) { l.events = append(l.events, e) }

// fineScan advances two fresh machines in lockstep from the anchor
// boundary and fills the report with the first divergent cycle, the
// differing components, and the first differing trace events.
func fineScan(ctx context.Context, rp *Report, ra, rb *Recording, anchor uint64) error {
	ma, err := ra.src.Build()
	if err != nil {
		return fmt.Errorf("replay: rebuild %s: %w", ra.src.Label, err)
	}
	mb, err := rb.src.Build()
	if err != nil {
		return fmt.Errorf("replay: rebuild %s: %w", rb.src.Label, err)
	}
	for _, pair := range []struct {
		m *machine.Machine
		r *Recording
	}{{ma, ra}, {mb, rb}} {
		if anchor == 0 {
			continue
		}
		done, err := pair.m.RunToCycle(ctx, anchor)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", pair.r.src.Label, err)
		}
		if done {
			return fmt.Errorf("replay: %s finished before the agreed anchor %d: non-deterministic source", pair.r.src.Label, anchor)
		}
		if got, want := pair.m.Digest(pair.r.scope), markAt(pair.r.marks, anchor); got != want {
			return fmt.Errorf("replay: %s diverged from its own recording at cycle %d: non-deterministic source", pair.r.src.Label, anchor)
		}
	}

	// Trace both sides from the anchor on, to name the first differing
	// message/wake once the state digests disagree.
	la, lb := &eventLog{}, &eventLog{}
	ma.AttachTrace(la)
	mb.AttachTrace(lb)

	// The sources may already differ at the anchor itself — only
	// possible when the very first mark (cycle 0) disagreed, i.e. the
	// initial machines differ before any event fires.
	if diff := machine.DiffComponents(ma.ComponentDigests(rp.Scope), mb.ComponentDigests(rp.Scope)); len(diff) > 0 {
		rp.Diverged = true
		rp.Cycle = anchor
		rp.Components = diff
		return nil
	}

	doneA, doneB := false, false
	for {
		na, okA := ma.NextEventCycle()
		nb, okB := mb.NextEventCycle()
		// A finished side stops advancing: its leftover same-cycle
		// events must not drive the boundary choice.
		okA = okA && !doneA
		okB = okB && !doneB
		if !okA && !okB {
			return nil // both stopped with no digest difference
		}
		t := na
		if !okA || (okB && nb < t) {
			t = nb
		}
		boundary := t + 1
		if !doneA {
			if doneA, err = ma.RunToCycle(ctx, boundary); err != nil {
				return fmt.Errorf("replay: %s: %w", ra.src.Label, err)
			}
		}
		if !doneB {
			if doneB, err = mb.RunToCycle(ctx, boundary); err != nil {
				return fmt.Errorf("replay: %s: %w", rb.src.Label, err)
			}
		}
		da := ma.ComponentDigests(rp.Scope)
		db := mb.ComponentDigests(rp.Scope)
		if diff := machine.DiffComponents(da, db); len(diff) > 0 {
			rp.Diverged = true
			rp.Cycle = t
			rp.Components = diff
			rp.AEvent, rp.BEvent = firstEventDiff(la.events, lb.events)
			return nil
		}
		if doneA && doneB {
			return nil
		}
	}
}

// markAt returns the recorded digest at the given mark cycle (0 when
// absent, which cannot match a real digest in practice).
func markAt(marks []Mark, cycle uint64) uint64 {
	for _, mk := range marks {
		if mk.Cycle == cycle {
			return mk.Digest
		}
	}
	return 0
}

// firstEventDiff locates the first index where the two event streams
// differ and renders both sides ("" for a side whose stream already
// ended).
func firstEventDiff(a, b []trace.Event) (string, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		// Events differ as the report renders them: operands it does
		// not show (a message's requester tag, a wait's sync kind) do
		// not count.
		if a[i] != b[i] {
			if fa, fb := formatEvent(a[i]), formatEvent(b[i]); fa != fb {
				return fa, fb
			}
		}
	}
	if len(a) > n {
		return formatEvent(a[n]), ""
	}
	if len(b) > n {
		return "", formatEvent(b[n])
	}
	return "", ""
}

func formatEvent(e trace.Event) string {
	s := fmt.Sprintf("cycle %d node %d %s addr %#x arg %d", e.Cycle, e.Node(), e.Kind, uint64(e.Addr), e.A)
	if note := e.Note(); note != "" {
		s += " (" + note + ")"
	}
	return s
}
