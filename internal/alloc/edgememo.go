package alloc

import "math/bits"

// edgeMemo is an exact memo of one communication's optics result: its
// per-wavelength BERs, its mean BER and its laser energy (Eqs. 1-9).
// In the model these are a pure function of a few inputs, and the
// evaluator packs every one of them into the key (see
// Evaluator.edgeKey):
//
//   - the edge index, which fixes the path, the destination and the
//     lane, and the bits of its window duration;
//   - its own wavelength mask row;
//   - the receiver-bank rows its light crosses;
//   - for each inter-crosstalk contributor, in ascending order, a
//     tagged index word, its mask row and the bank rows its light
//     crosses before the victim's receiver.
//
// The GA rebuilds the same few configurations over and over, so most
// communications of a campaign cell repeat one already walked. Keys
// are compared word for word; the hash only picks the probe start, so
// a hit returns exactly what the walk computed.
//
// Storage is lazy: nothing is allocated until the first insert, and
// every array then grows by doubling up to its share of memoBudget.
// An insert that would pass a bound resets the store wholesale; the
// arrays keep their capacity, so a warm evaluator never allocates
// again. Each Evaluator owns one: no locks, no sharing.
type edgeMemo struct {
	// table is the open-addressed index: 1-based positions in ents,
	// 0 for an empty slot. Its length is a power of two, at least
	// twice len(ents).
	table []int32
	ents  []memoEnt
	// keys and vals are the arenas the entries point into. An entry's
	// values are its per-channel BERs followed by its mean BER and its
	// laser energy.
	keys []uint64
	vals []float64
}

type memoEnt struct {
	hash      uint64
	key, nkey int32
	val, nval int32
}

// The memo's bounds. memoEntries entries fill the table to half its
// largest size; the arenas cap what the keys and values of those
// entries may occupy (a ring NW 8 key is ~20 words, a value ~5).
const (
	memoEntries   = 1 << 14
	memoTableLen  = 2 * memoEntries
	memoKeyWords  = 1 << 18
	memoValFloats = 1 << 17
	memoEntBytes  = 24
	// memoBudget is the most a memo ever holds, in bytes.
	memoBudget = memoTableLen*4 + memoEntries*memoEntBytes + memoKeyWords*8 + memoValFloats*8
)

// hashWords mixes every word of a key into a probe start.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = bits.RotateLeft64(h^w, 27) * 0x9E3779B97F4A7C15
	}
	return h ^ h>>31
}

// lookup returns the values stored under key and the key's hash,
// which insert takes back on a miss.
func (m *edgeMemo) lookup(key []uint64) (vals []float64, h uint64, ok bool) {
	h = hashWords(key)
	if len(m.table) == 0 {
		return nil, h, false
	}
	mask := uint64(len(m.table) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		t := m.table[slot]
		if t == 0 {
			return nil, h, false
		}
		ent := &m.ents[t-1]
		if ent.hash == h && int(ent.nkey) == len(key) && sameWords(m.keys[ent.key:ent.key+ent.nkey], key) {
			return m.vals[ent.val : ent.val+ent.nval], h, true
		}
	}
}

func sameWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insert stores vals under key (hash h, from the missed lookup). A
// key or value too large for its arena is not stored.
func (m *edgeMemo) insert(h uint64, key []uint64, vals []float64) {
	if len(key) > memoKeyWords || len(vals) > memoValFloats {
		return
	}
	if len(m.ents) == memoEntries || len(m.keys)+len(key) > memoKeyWords || len(m.vals)+len(vals) > memoValFloats {
		m.reset()
	}
	if 2*(len(m.ents)+1) > len(m.table) {
		m.growTable()
	}
	m.ents = grow(m.ents, 1, memoEntries)
	m.keys = grow(m.keys, len(key), memoKeyWords)
	m.vals = grow(m.vals, len(vals), memoValFloats)
	m.ents = append(m.ents, memoEnt{hash: h,
		key: int32(len(m.keys)), nkey: int32(len(key)),
		val: int32(len(m.vals)), nval: int32(len(vals))})
	m.keys = append(m.keys, key...)
	m.vals = append(m.vals, vals...)
	m.place(h, int32(len(m.ents)))
}

// place records 1-based entry position pos in the first free slot of
// its probe sequence.
func (m *edgeMemo) place(h uint64, pos int32) {
	mask := uint64(len(m.table) - 1)
	slot := h & mask
	for m.table[slot] != 0 {
		slot = (slot + 1) & mask
	}
	m.table[slot] = pos
}

// growTable doubles the index (from 256 slots) and re-places every
// entry.
func (m *edgeMemo) growTable() {
	n := 2 * len(m.table)
	if n == 0 {
		n = 256
	}
	m.table = make([]int32, n)
	for i := range m.ents {
		m.place(m.ents[i].hash, int32(i+1))
	}
}

// reset empties the store, keeping every array's capacity.
func (m *edgeMemo) reset() {
	clear(m.table)
	m.ents = m.ents[:0]
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
}

// grow returns s with room for n more elements, doubling its capacity
// (from 64) but never past limit; the caller ensures len(s)+n <= limit.
func grow[T any](s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(2*cap(s), 64, len(s)+n)
	c = min(c, limit)
	return append(make([]T, 0, c), s...)
}
