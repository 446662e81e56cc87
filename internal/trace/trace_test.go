package trace

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: EvNoCSend})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Cycle != 2 || evs[2].Cycle != 4 {
		t.Fatalf("wrong window: %v", evs)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	Multi{a, b}.Emit(Event{Kind: EvCBWake})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("multi sink did not fan out")
	}
}

// kindSink reads only its own kinds.
type kindSink struct {
	kinds Mask
	got   []Kind
}

func (s *kindSink) Kinds() Mask  { return s.kinds }
func (s *kindSink) Emit(e Event) { s.got = append(s.got, e.Kind) }

// Each member of a Multi sees only the kinds it declares, and the Multi
// declares their union.
func TestMultiFiltersByKinds(t *testing.T) {
	sync, net := &kindSink{kinds: Of(EvSyncEnd)}, &kindSink{kinds: Of(EvNoCSend)}
	m := Multi{sync, net}
	if m.Kinds() != Of(EvSyncEnd, EvNoCSend) {
		t.Fatalf("Kinds = %b", m.Kinds())
	}
	for _, k := range []Kind{EvNoCSend, EvSyncEnd, EvExec} {
		m.Emit(Event{Kind: k})
	}
	if len(sync.got) != 1 || sync.got[0] != EvSyncEnd || len(net.got) != 1 || net.got[0] != EvNoCSend {
		t.Fatalf("sync saw %v, net saw %v", sync.got, net.got)
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{{Kind: EvNoCSend}, {Kind: EvNoCSend}, {Kind: EvNoCDeliver}}
	if s := Summarize(evs); s != "send=2 deliver=1" {
		t.Fatalf("summary: %q", s)
	}
}

func TestDump(t *testing.T) {
	r := NewRing(2)
	r.Emit(Event{Kind: EvCBBlock, Addr: memtypes.Addr(0x40)})
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.Contains(sb.String(), "0x40") {
		t.Fatalf("dump: %q", sb.String())
	}
}

// Text is rendered from the numbers at the edge: a message's route and a
// sync phase's kind name.
func TestEventRendering(t *testing.T) {
	send := Event{Kind: EvNoCSend, Core: 9, Cycle: 7, Addr: 0x40,
		A: 3<<32 | 5, B: 0x101<<8 | uint64(memtypes.ClassLineData)}
	if got, want := send.String(), "[       7] node  3 send       0x40       kind=0x101 line 3->5"; got != want {
		t.Errorf("send renders %q, want %q", got, want)
	}
	deliver := send
	deliver.Kind = EvNoCDeliver
	if deliver.Node() != 5 {
		t.Errorf("deliver node = %d, want 5", deliver.Node())
	}
	end := Event{Kind: EvSyncEnd, Core: 2, Cycle: 12, A: 4, B: uint64(isa.SyncAcquire)}
	if got, want := end.String(), "[      12] node  2 sync.end   0x0        acquire"; got != want {
		t.Errorf("sync.end renders %q, want %q", got, want)
	}
}

func TestZeroSizeRingDefaults(t *testing.T) {
	r := NewRing(0)
	r.Emit(Event{})
	if r.Len() != 1 {
		t.Fatal("default-capacity ring broken")
	}
}
