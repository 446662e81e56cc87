package cycles

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// walkProto iterates the top-level fields of an encoded protobuf
// message, calling visit with each field number and (for
// length-delimited fields) the payload, or (for varints) the value.
func walkProto(data []byte, visit func(field int, wire int, payload []byte, value uint64)) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad tag varint")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			data = data[n:]
			visit(field, wire, nil, v)
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			visit(field, wire, data[n:n+int(l)], 0)
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unexpected wire type %d for field %d", wire, field)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// TestWritePprofStructure decodes the emitted gzipped profile.proto far
// enough to verify what `go tool pprof` depends on: a sample_type, one
// sample per nonzero cell with location ids resolvable to functions,
// and a string table carrying the frame names.
func TestWritePprofStructure(t *testing.T) {
	a := NewAccumulator(2)
	observe(a, 0, trace.EvExec, 0, 10, uint64(isa.SyncNone))
	observe(a, 0, trace.EvExec, 0, 6, uint64(isa.SyncAcquire))
	observe(a, 0, trace.EvDone, 16, 0, 0)
	observe(a, 1, trace.EvExec, 0, 16, uint64(isa.SyncNone))
	observe(a, 1, trace.EvDone, 16, 0, 0)
	mesi := a.Snapshot(16)

	b := NewAccumulator(1)
	observe(b, 0, trace.EvStallBegin, 0, uint64(isa.SyncWait), uint64(CatL1Stall))
	observe(b, 0, trace.EvOpen, 2, uint64(CatCBBlocked), 0)
	observe(b, 0, trace.EvClose, 12, 0, 0)
	observe(b, 0, trace.EvStallEnd, 12, 0, 0)
	observe(b, 0, trace.EvDone, 12, 0, 0)
	cbone := b.Snapshot(12)

	var buf bytes.Buffer
	err := WritePprof(&buf, []SetupStack{
		{Setup: "Invalidation", Stack: mesi},
		{Setup: "CB-One", Stack: cbone},
	})
	if err != nil {
		t.Fatal(err)
	}

	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	var sampleTypes, samples, locations, functions int
	var strs []string
	var totalValue uint64
	err = walkProto(raw, func(field, wire int, payload []byte, _ uint64) {
		switch field {
		case 1:
			sampleTypes++
		case 2:
			samples++
			walkProto(payload, func(f, w int, p []byte, _ uint64) {
				if f == 2 && w == 2 { // packed values
					v, _ := uvarint(p)
					totalValue += v
				}
			})
		case 4:
			locations++
		case 5:
			functions++
		case 6:
			strs = append(strs, string(payload))
		}
	})
	if err != nil {
		t.Fatalf("malformed profile: %v", err)
	}
	if sampleTypes != 1 {
		t.Errorf("sample_type count = %d, want 1", sampleTypes)
	}
	// mesi: core0 compute+spin, core1 compute; cbone: spin gap + blocked.
	if samples != 5 {
		t.Errorf("sample count = %d, want 5", samples)
	}
	if locations != functions || locations == 0 {
		t.Errorf("locations = %d, functions = %d; want equal and nonzero", locations, functions)
	}
	// Conservation survives the encoding: total sample weight equals the
	// sum of both machines' accounted cycles.
	if want := mesi.TotalCycles() + cbone.TotalCycles(); totalValue != want {
		t.Errorf("total sample value = %d, want %d", totalValue, want)
	}
	if len(strs) == 0 || strs[0] != "" {
		t.Fatalf("string_table[0] = %q, want empty", strs)
	}
	have := map[string]bool{}
	for _, s := range strs {
		have[s] = true
	}
	for _, want := range []string{"cycles", "compute", "spin_wait", "cb_blocked",
		"phase:acquire", "core00", "Invalidation", "CB-One"} {
		if !have[want] {
			t.Errorf("string table missing %q", want)
		}
	}
}
