// The simulated-time profiler: cycle stacks rendered as a
// pprof-compatible profile (gzipped profile.proto, hand-encoded — the
// repo takes no external dependencies) and as Brendan Gregg folded
// stacks. The stack shape is setup / core / phase / category, weighted
// by simulated cycles, so `go tool pprof -top` surfaces the category
// split (spin_wait vs cb_blocked) across protocol setups and flame
// viewers (speedscope, pprof -http) show where the time goes per setup.

package cycles

import (
	"compress/gzip"
	"fmt"
	"io"

	"repro/internal/isa"
)

// SetupStack pairs a protocol setup name with its machine's cycle
// accounting; a profile holds one entry per setup so a single artifact
// compares e.g. Invalidation spinning against CB-One blocking.
type SetupStack struct {
	Setup string
	Stack *MachineStack
}

// protoBuf is a minimal protobuf wire-format encoder: varint (wire
// type 0) and length-delimited (wire type 2) fields are all
// profile.proto needs.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *protoBuf) uint(field int, v uint64) {
	if v == 0 {
		return // proto3 default
	}
	p.tag(field, 0)
	p.varint(v)
}

func (p *protoBuf) bytes(field int, data []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

// packed encodes a repeated integer field in packed form.
func (p *protoBuf) packed(field int, vals []uint64) {
	var inner protoBuf
	for _, v := range vals {
		inner.varint(v)
	}
	p.bytes(field, inner.b)
}

// profileBuilder interns strings and one location+function per frame
// name, then assembles samples. Maps are lookup-only; emission follows
// insertion order, so output is deterministic.
type profileBuilder struct {
	strings  []string
	stringID map[string]uint64
	funcs    []uint64 // function id i+1 has name string id funcs[i]
	funcID   map[string]uint64
	samples  []sample
}

type sample struct {
	locs  []uint64 // leaf first
	value uint64
}

func newProfileBuilder() *profileBuilder {
	b := &profileBuilder{stringID: map[string]uint64{}, funcID: map[string]uint64{}}
	b.str("") // string_table[0] must be ""
	return b
}

func (b *profileBuilder) str(s string) uint64 {
	if id, ok := b.stringID[s]; ok {
		return id
	}
	id := uint64(len(b.strings))
	b.strings = append(b.strings, s)
	b.stringID[s] = id
	return id
}

// loc returns the location id for a frame name, creating the
// function+location pair on first use.
func (b *profileBuilder) loc(name string) uint64 {
	if id, ok := b.funcID[name]; ok {
		return id
	}
	b.funcs = append(b.funcs, b.str(name))
	id := uint64(len(b.funcs)) // ids are 1-based
	b.funcID[name] = id
	return id
}

func (b *profileBuilder) add(value uint64, leafToRoot ...string) {
	if value == 0 {
		return
	}
	locs := make([]uint64, len(leafToRoot))
	for i, name := range leafToRoot {
		locs[i] = b.loc(name)
	}
	b.samples = append(b.samples, sample{locs: locs, value: value})
}

// encode assembles the profile.proto message.
func (b *profileBuilder) encode() []byte {
	var p protoBuf
	// sample_type = ValueType{type: "cycles", unit: "cycles"}.
	cyclesID := b.str("cycles")
	var vt protoBuf
	vt.uint(1, cyclesID)
	vt.uint(2, cyclesID)
	p.bytes(1, vt.b)
	for _, s := range b.samples {
		var sm protoBuf
		sm.packed(1, s.locs)
		sm.packed(2, []uint64{s.value})
		p.bytes(2, sm.b)
	}
	for i := range b.funcs {
		id := uint64(i + 1)
		var line protoBuf
		line.uint(1, id) // function_id
		var loc protoBuf
		loc.uint(1, id) // location id
		loc.bytes(4, line.b)
		p.bytes(4, loc.b)
		var fn protoBuf
		fn.uint(1, id)         // function id
		fn.uint(2, b.funcs[i]) // name
		fn.uint(3, b.funcs[i]) // system_name
		p.bytes(5, fn.b)
	}
	for _, s := range b.strings {
		p.bytes(6, []byte(s))
	}
	// period_type/period: one sample unit is one cycle.
	var pt protoBuf
	pt.uint(1, cyclesID)
	pt.uint(2, cyclesID)
	p.bytes(11, pt.b)
	p.uint(12, 1)
	return p.b
}

// frames appends every nonzero (core, phase, category) cell of a
// machine stack to emit, as (value, leaf-to-root frame names).
func frames(s SetupStack, emit func(value uint64, leafToRoot ...string)) {
	for core := range s.Stack.Cores {
		coreFrame := fmt.Sprintf("core%02d", core)
		for k := isa.SyncKind(0); k < isa.NumSyncKinds; k++ {
			phaseFrame := "phase:" + k.String()
			for cat := Category(0); cat < NumCategories; cat++ {
				n := s.Stack.Cores[core].ByPhase[k][cat]
				emit(n, cat.String(), phaseFrame, coreFrame, s.Setup)
			}
		}
	}
}

// WritePprof writes the setups' cycle stacks as a gzipped
// profile.proto, viewable with `go tool pprof -top out.pb.gz` or any
// flame-graph viewer that reads pprof (speedscope, pprof -http).
func WritePprof(w io.Writer, stacks []SetupStack) error {
	b := newProfileBuilder()
	for _, s := range stacks {
		frames(s, b.add)
	}
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(b.encode()); err != nil {
		return fmt.Errorf("cycles: writing profile: %w", err)
	}
	return zw.Close()
}

// WriteFolded writes the stacks in folded (flamegraph.pl / speedscope)
// text form: one "setup;coreNN;phase;category count" line per nonzero
// cell, root first.
func WriteFolded(w io.Writer, stacks []SetupStack) error {
	for _, s := range stacks {
		var err error
		frames(s, func(value uint64, leafToRoot ...string) {
			if value == 0 || err != nil {
				return
			}
			_, err = fmt.Fprintf(w, "%s;%s;%s;%s %d\n",
				leafToRoot[3], leafToRoot[2], leafToRoot[1], leafToRoot[0], value)
		})
		if err != nil {
			return fmt.Errorf("cycles: writing folded stacks: %w", err)
		}
	}
	return nil
}
