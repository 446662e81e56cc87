package isa

import (
	"math"
	"math/bits"
)

// table is the instruction table that the programs of one Builder
// share: each distinct instruction once, in order of first use.
type table struct {
	ins []Instr
}

// interner appends instructions to a table, finding one already there
// through an open-addressed hash index. Only the builder keeps the
// index; programs keep the table alone.
type interner struct {
	tab   *table
	slots []uint32 // 1 + position in tab.ins, or 0 when empty
	shift uint     // 64 - log2(len(slots)): a hash's top bits pick its slot
}

// minSlots is the hash index's initial size. The index keeps at least
// half its slots empty, so 512 distinct instructions, enough for most
// single programs, fit before it first grows. A 64-core generated thread
// set holds 2,300 to 5,400.
const minSlots = 1024

func newInterner() interner {
	t := interner{tab: &table{}}
	t.grow()
	return t
}

// intern returns in's position in the table, appending it if it is new.
// The position is a uint32: every position names a 56-byte instruction,
// so a table would need 240 GB before one overflowed.
func (t *interner) intern(in *Instr) uint32 {
	if 2*(len(t.tab.ins)+1) > len(t.slots) {
		t.grow()
	}
	s := t.find(in)
	if j := t.slots[s]; j != 0 {
		return j - 1
	}
	if uint64(len(t.tab.ins)) >= math.MaxUint32 {
		panic("isa: instruction table full")
	}
	t.tab.ins = append(t.tab.ins, *in)
	t.slots[s] = uint32(len(t.tab.ins))
	return t.slots[s] - 1
}

// find returns the slot that holds in, or the empty slot where it goes.
func (t *interner) find(in *Instr) int {
	mask := len(t.slots) - 1
	s := int(in.hash() >> t.shift)
	for t.slots[s] != 0 && t.tab.ins[t.slots[s]-1] != *in {
		s = (s + 1) & mask
	}
	return s
}

// grow doubles the hash index and reinserts every instruction.
func (t *interner) grow() {
	n := max(2*len(t.slots), minSlots)
	t.slots = make([]uint32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range t.tab.ins {
		t.slots[t.find(&t.tab.ins[i])] = uint32(i + 1)
	}
}

// hash mixes every field of in: the one-byte fields packed into one
// word, and that word and the five wide fields folded in pairs through
// 128-bit products whose halves are xored, as wyhash does. The three
// products are independent, so they overlap in the pipeline.
func (in *Instr) hash() uint64 {
	w := uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rs)<<16 | uint64(in.Rt)<<24 |
		uint64(in.Base)<<32 | uint64(in.RMWOp)<<40 | uint64(in.RMWSt)<<48 | uint64(in.ArgReg)<<56
	if in.RMWLdCB {
		w ^= 1 << 63
	}
	if in.ArgIsReg {
		w ^= 1 << 62
	}
	return mix(w^hashKeys[0], in.ImmVal^hashKeys[1]) ^
		mix(uint64(in.Target)^hashKeys[2], uint64(in.Offset)^hashKeys[3]) ^
		mix(in.Expect^hashKeys[4], in.ArgImm^hashKeys[5])
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashKeys keep a product's operands nonzero. Most fields are zero, and
// without them a zero field would zero its partner's product and drop
// that field from the hash. They are wyhash's and splitmix64's constants.
var hashKeys = [6]uint64{
	0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3,
	0x589965cc75374cc3, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
}
