package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// hostBuckets are the layers a CPU profile is folded into, each reported
// as <bucket>.host_frac. "runtime.alloc" is the allocator (the mallocgc
// family), "runtime.gc" the collector and write barriers, and "other"
// everything else: the standard library outside those two, the service
// and experiments layers, workload generation, and the benchmark itself.
var hostBuckets = []string{"sim", "cpu", "cache", "mesi", "vips", "core", "noc", "mem", "memtypes",
	"machine", "trace", "obs", "cycles", "runtime.alloc", "runtime.gc", "other"}

// gcFrames and allocFrames mark a sample as collector or allocator work
// when any frame of its stack starts with one of them; collector frames
// win, since assists run inside mallocgc.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.bgsweep",
		"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.gcWriteBarrier"}
	allocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.newarray", "runtime.makemap"}
)

// foldProfile decodes a gzipped runtime/pprof CPU profile and returns
// each bucket's share of the sampled CPU time. A sample goes to
// runtime.gc or runtime.alloc when its stack holds a collector or
// allocator frame; otherwise to the package of its innermost
// repro/internal frame (so a runtime helper such as memmove counts
// toward the simulator package that called it), or to "other". The
// shares sum to 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, b := range hostBuckets {
		known[b] = true
	}
	totals := map[string]float64{}
	var all float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if i := p.funcName[fn]; i >= 0 && int(i) < len(p.strings) {
					frames = append(frames, p.strings[i])
				}
			}
		}
		b := bucketOf(frames)
		if !known[b] {
			b = "other"
		}
		totals[b] += float64(s.values[0])
		all += float64(s.values[0])
	}
	if all == 0 {
		return nil, errors.New("profile holds no samples")
	}
	fracs := map[string]float64{}
	var sum float64
	for _, b := range hostBuckets {
		fracs[b] = totals[b] / all
		sum += fracs[b]
	}
	if math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("profile fractions sum to %.4f, not 1", sum)
	}
	return fracs, nil
}

func bucketOf(frames []string) string {
	hasAny := func(prefixes []string) bool {
		for _, f := range frames {
			for _, p := range prefixes {
				if strings.HasPrefix(f, p) {
					return true
				}
			}
		}
		return false
	}
	if hasAny(gcFrames) {
		return "runtime.gc"
	}
	if hasAny(allocFrames) {
		return "runtime.alloc"
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// profile is the subset of profile.proto the fold needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> name's string-table index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64  // runtime/pprof CPU profiles: sample count, then CPU nanoseconds
}

// parseProfile reads a serialized profile.proto message with a minimal
// protobuf reader: only the fields the fold uses are decoded.
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField walks a message's fields, calling fn with the field number
// and either its varint value or its length-delimited bytes (b is nil
// for varints). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n, err := readVarint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n, err := readVarint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n, err := readVarint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[:l:l]); err != nil {
				return err
			}
			msg = msg[l:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: one
// unpacked value (b nil) or a packed run.
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n, err := readVarint(b)
		if err != nil {
			return err
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
