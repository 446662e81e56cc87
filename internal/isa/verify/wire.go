package verify

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// Wire format: the JSON program representation accepted by cbsimd's
// POST /v1/verify endpoint (and, eventually, by user-programmable
// workload submission). Opcode, RMW-op, and store-half names match the
// String() forms of the corresponding enums ("ld_cb", "t&s", "cb0").

// WireInstr is one instruction in wire form. Branch targets are
// resolved instruction indices.
type WireInstr struct {
	Op     string `json:"op"`
	Rd     int    `json:"rd,omitempty"`
	Rs     int    `json:"rs,omitempty"`
	Rt     int    `json:"rt,omitempty"`
	Imm    uint64 `json:"imm,omitempty"`
	Target int    `json:"target,omitempty"`
	Base   int    `json:"base,omitempty"`
	Offset int64  `json:"offset,omitempty"`

	RMWOp    string `json:"rmw_op,omitempty"`
	RMWLdCB  bool   `json:"rmw_ld_cb,omitempty"`
	RMWSt    string `json:"rmw_st,omitempty"`
	Expect   uint64 `json:"expect,omitempty"`
	ArgReg   int    `json:"arg_reg,omitempty"`
	ArgImm   uint64 `json:"arg_imm,omitempty"`
	ArgIsReg bool   `json:"arg_is_reg,omitempty"`
}

// WireRange is one footprint range.
type WireRange struct {
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// WireFootprint is a footprint in wire form.
type WireFootprint struct {
	Ranges        []WireRange `json:"ranges"`
	AllowIndirect bool        `json:"allow_indirect,omitempty"`
}

// WireRequest is a full verification request: one program per thread,
// a shared footprint, and the mode ("strict" is the default — untrusted
// programs must be unconditionally bounded; "trusted" admits
// sync-guarded spin loops).
type WireRequest struct {
	Threads   []WireProgram `json:"threads"`
	Footprint WireFootprint `json:"footprint"`
	Mode      string        `json:"mode,omitempty"`
}

// WireProgram is one thread's instruction list.
type WireProgram struct {
	Ins []WireInstr `json:"ins"`
}

var (
	opByName  = map[string]isa.Opcode{}
	rmwByName = map[string]memtypes.RMWOp{}
	cbwByName = map[string]memtypes.CBWrite{}
)

func init() {
	for o := isa.Nop; o <= isa.Done; o++ {
		opByName[o.String()] = o
	}
	for r := memtypes.RMWTestAndSet; r <= memtypes.RMWCompareAndSwap; r++ {
		rmwByName[r.String()] = r
	}
	for w := memtypes.CBAll; w <= memtypes.CBZero; w++ {
		cbwByName[w.String()] = w
	}
}

// wireReg converts a wire register index, rejecting values that cannot
// round-trip through isa.Reg. Out-of-range-but-representable values
// (e.g. 200) are left to the verifier's structural check, which
// produces a per-instruction diagnostic.
func wireReg(v int, what string, tid, pc int) (isa.Reg, error) {
	if v < 0 || v > 255 {
		return 0, fmt.Errorf("thread %d pc %d: %s register %d not representable", tid, pc, what, v)
	}
	return isa.Reg(v), nil
}

// Decode converts the request into programs and options. Errors are
// representation problems (unknown opcode names, unrepresentable
// fields); semantic problems are the verifier's job.
func (wr *WireRequest) Decode() ([]*isa.Program, Options, error) {
	var opts Options
	switch wr.Mode {
	case "", "strict":
		opts.Mode = ModeStrict
	case "trusted":
		opts.Mode = ModeTrusted
	default:
		return nil, opts, fmt.Errorf("unknown mode %q (want \"strict\" or \"trusted\")", wr.Mode)
	}
	fp := &Footprint{AllowIndirect: wr.Footprint.AllowIndirect}
	for _, r := range wr.Footprint.Ranges {
		if r.Size == 0 {
			return nil, opts, fmt.Errorf("footprint range at 0x%x has zero size", r.Base)
		}
		if r.Base+r.Size < r.Base {
			return nil, opts, fmt.Errorf("footprint range at 0x%x wraps the address space", r.Base)
		}
		fp.AddRange(memtypes.Addr(r.Base), r.Size)
	}
	opts.Footprint = fp

	var progs []*isa.Program
	for tid, wp := range wr.Threads {
		ins := make([]isa.Instr, len(wp.Ins))
		for pc, wi := range wp.Ins {
			op, ok := opByName[wi.Op]
			if !ok {
				return nil, opts, fmt.Errorf("thread %d pc %d: unknown opcode %q", tid, pc, wi.Op)
			}
			in := &ins[pc]
			in.Op = op
			var err error
			if in.Rd, err = wireReg(wi.Rd, "rd", tid, pc); err != nil {
				return nil, opts, err
			}
			if in.Rs, err = wireReg(wi.Rs, "rs", tid, pc); err != nil {
				return nil, opts, err
			}
			if in.Rt, err = wireReg(wi.Rt, "rt", tid, pc); err != nil {
				return nil, opts, err
			}
			if in.Base, err = wireReg(wi.Base, "base", tid, pc); err != nil {
				return nil, opts, err
			}
			if in.ArgReg, err = wireReg(wi.ArgReg, "arg", tid, pc); err != nil {
				return nil, opts, err
			}
			in.ImmVal = wi.Imm
			in.Target = wi.Target
			in.Offset = wi.Offset
			in.Expect = wi.Expect
			in.ArgImm = wi.ArgImm
			in.ArgIsReg = wi.ArgIsReg
			in.RMWLdCB = wi.RMWLdCB
			if op == isa.RMW {
				r, ok := rmwByName[wi.RMWOp]
				if !ok {
					return nil, opts, fmt.Errorf("thread %d pc %d: unknown RMW op %q", tid, pc, wi.RMWOp)
				}
				in.RMWOp = r
				w, ok := cbwByName[wi.RMWSt]
				if !ok {
					return nil, opts, fmt.Errorf("thread %d pc %d: unknown RMW store half %q", tid, pc, wi.RMWSt)
				}
				in.RMWSt = w
			}
		}
		progs = append(progs, isa.NewProgram(ins))
	}
	if len(progs) == 0 {
		return nil, opts, fmt.Errorf("no threads in request")
	}
	return progs, opts, nil
}

// EncodeProgram converts a program to wire form (for clients and
// tests).
func EncodeProgram(p *isa.Program) WireProgram {
	wp := WireProgram{Ins: make([]WireInstr, p.Len())}
	for pc := range wp.Ins {
		in, wi := p.At(pc), &wp.Ins[pc]
		wi.Op = in.Op.String()
		wi.Rd, wi.Rs, wi.Rt = int(in.Rd), int(in.Rs), int(in.Rt)
		wi.Imm = in.ImmVal
		wi.Target = in.Target
		wi.Base = int(in.Base)
		wi.Offset = in.Offset
		wi.RMWLdCB = in.RMWLdCB
		wi.Expect = in.Expect
		wi.ArgReg = int(in.ArgReg)
		wi.ArgImm = in.ArgImm
		wi.ArgIsReg = in.ArgIsReg
		if in.Op == isa.RMW {
			wi.RMWOp = in.RMWOp.String()
			wi.RMWSt = in.RMWSt.String()
		}
	}
	return wp
}
