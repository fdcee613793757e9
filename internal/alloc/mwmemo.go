package alloc

import (
	"math"

	"repro/internal/phys"
)

// mwMemo is an exact memo of phys.DBm.MilliWatt, the optics kernel's
// dB -> linear conversion (math.Pow(10, x/10)). The kernel converts
// the same few sums of per-ring dB constants over and over: an
// arrival depends only on the path, the channel pair and the bank
// bits it walks, so most conversions within one campaign cell repeat
// an earlier one.
//
// The table is direct-mapped and keyed on the argument's bit pattern.
// Each slot holds a key and the value MilliWatt returned for exactly
// that key, so a hit returns the same bits as the direct call and a
// miss computes the value and overwrites the slot. Keys that compare
// equal without being the same bits (+0 and -0), or never compare
// equal (NaN), are told apart by their bits.
//
// A slot stores its key XOR the bits of -Inf dBm. A zeroed slot
// therefore holds the genuine entry MilliWatt(-Inf) = 0 (math.Pow(10,
// -Inf) is exactly +0), so a freshly allocated table needs no
// initialisation and has no empty state that could produce a false
// hit.
//
// Each Evaluator owns one: no locks, no sharing, and no allocation
// after construction.
type mwMemo struct {
	slots []mwSlot
	shift uint // 64 - log2(len(slots))
}

type mwSlot struct {
	key uint64 // math.Float64bits(dBm) ^ negInfBits
	mw  phys.MilliWatt
}

var negInfBits = math.Float64bits(math.Inf(-1))

// newMWMemo returns a memo of 2^bits slots.
func newMWMemo(bits uint) mwMemo {
	return mwMemo{slots: make([]mwSlot, 1<<bits), shift: 64 - bits}
}

// memoBits sizes an evaluator's memo from the comb: the distinct
// conversions of a cell grow with the channel pairs NW^2 that signal
// and crosstalk walks combine (~1.5 k per crossbar NW 8 cell, which a
// 4096-slot table serves best: a larger one costs more to allocate
// per evaluator than its extra hits save). 64·NW^2 slots, clamped to
// [2^8, 2^13] — at most 128 KiB.
func memoBits(nw int) uint {
	bits := uint(8)
	for bits < 13 && 1<<bits < 64*nw*nw {
		bits++
	}
	return bits
}

// milliWatt returns p.MilliWatt(), bit for bit.
func (m *mwMemo) milliWatt(p phys.DBm) phys.MilliWatt {
	k := math.Float64bits(float64(p))
	// Fibonacci hashing: the top bits of the product depend on every
	// bit of the key, the low mantissa bits included.
	s := &m.slots[(k*0x9E3779B97F4A7C15)>>m.shift]
	if s.key == k^negInfBits {
		return s.mw
	}
	mw := p.MilliWatt()
	*s = mwSlot{key: k ^ negInfBits, mw: mw}
	return mw
}
