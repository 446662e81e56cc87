package noc

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/memtypes"
	"repro/internal/sim"
)

func TestMsgPoolRecycles(t *testing.T) {
	var p memtypes.MsgPool
	m1 := p.Get()
	m1.Addr = 0xdead
	p.Put(m1)
	if p.Len() != 1 {
		t.Fatalf("pool Len = %d, want 1", p.Len())
	}
	m2 := p.Get()
	if m2 != m1 {
		t.Fatal("pool did not reuse the freed message")
	}
	if *m2 != (memtypes.Message{}) {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
}

// A pooled message travelling the mesh must cost zero heap allocations per
// hop in steady state: the event heap is pre-grown, hops are actor events,
// and the message itself is recycled by the consuming handler.
func TestPooledSendZeroAllocs(t *testing.T) {
	k := sim.New()
	m := New(k, 4, 4)
	for n := 0; n < m.Nodes(); n++ {
		m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) {
			m.Free(msg)
		}))
	}
	send := func() {
		msg := m.NewMessage()
		msg.Src, msg.Dst = 0, 15 // corner to corner: 6 hops
		msg.Class = memtypes.ClassControl
		m.Send(msg)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	send() // warm the pool and the free-list backing array
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("pooled send allocated %.1f times per message, want 0", allocs)
	}
}

// The observer must not break the zero-alloc hot path: a pooled message
// travelling the mesh with cycle accounting attached still costs zero
// heap allocations per hop in steady state (the event is a flat value —
// no boxing, no route string).
func TestPooledSendZeroAllocsWithCyclesObserver(t *testing.T) {
	k := sim.New()
	m := New(k, 4, 4)
	a := cycles.NewAccumulator(16)
	m.SetObserver(a.Emit, a.Kinds())
	for n := 0; n < m.Nodes(); n++ {
		m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) {
			m.Free(msg)
		}))
	}
	send := func() {
		msg := m.NewMessage()
		msg.Src, msg.Dst = 0, 15
		msg.Core = 3
		msg.Class = memtypes.ClassControl
		m.Send(msg)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	send()
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("observed send allocated %.1f times per message, want 0", allocs)
	}
}
