package nsga2

import (
	"bytes"
	"hash/maphash"
	"math"
)

// genomeCache is the engine's evaluation cache and archive: an
// open-addressing hash table over interned genome keys whose entry
// slice doubles as the insertion-order archive. Unlike a
// map[string]..., a lookup never converts the genome to a string and
// never allocates: the probe compares the 64-bit hash first and the
// interned key bytes only on a hash match. Only inserting a
// previously unseen genome allocates (the entry slice and table
// growth, and a fresh chunk of the key arena the interned copies are
// carved from), which is exactly the data the run retains anyway.
type genomeCache struct {
	seed    maphash.Seed
	entries []cacheEntry
	keys    arena[byte]
	// table holds 1-based indices into entries (0 = empty slot) and
	// always has power-of-two length; mask is len(table)-1.
	table []int32
	mask  uint64
}

// cacheEntry is one distinct evaluated genotype in insertion order.
// A freshly inserted entry is pending (violation NaN) until the
// evaluation batch that created it stores its result.
type cacheEntry struct {
	hash      uint64
	key       []byte
	objs      []float64
	violation float64
	// aux holds the problem's aux values for the genotype, written by
	// a view's EvaluateInto or restored from a checkpoint; nil for a
	// problem without them. The engine never interprets them.
	aux []float64
}

// setRow points the entry's objective and aux views into one arena
// row: the objectives first, then the aux values.
func (c *cacheEntry) setRow(row []float64, nObj int) {
	c.objs = row[:nObj:nObj]
	if len(row) > nObj {
		c.aux = row[nObj:]
	}
}

// newGenomeCache returns an empty cache for keyLen-byte genomes whose
// entry slice and first key chunk have room for want entries, capped
// at what the initial table holds before it first grows and at one
// key chunk.
func newGenomeCache(want, keyLen int) genomeCache {
	const initialSlots = 1024
	return genomeCache{
		seed:    maphash.MakeSeed(),
		entries: make([]cacheEntry, 0, min(want, initialSlots*3/4)),
		keys:    newArena[byte](want*keyLen, keyChunk),
		table:   make([]int32, initialSlots),
		mask:    initialSlots - 1,
	}
}

// lookup returns the entry index of g, or false. Allocation-free.
func (c *genomeCache) lookup(g []byte) (int, bool) {
	h := maphash.Bytes(c.seed, g)
	for slot := h & c.mask; ; slot = (slot + 1) & c.mask {
		t := c.table[slot]
		if t == 0 {
			return 0, false
		}
		e := &c.entries[t-1]
		if e.hash == h && bytes.Equal(e.key, g) {
			return int(t - 1), true
		}
	}
}

// insert interns a copy of g as a new pending entry and returns its
// index. The caller must know g is absent (lookup first).
func (c *genomeCache) insert(g []byte) int {
	// Grow at 3/4 load so probe chains stay short.
	if uint64(len(c.entries)+1)*4 >= uint64(len(c.table))*3 {
		c.grow()
	}
	h := maphash.Bytes(c.seed, g)
	idx := len(c.entries)
	c.entries = append(c.entries, cacheEntry{
		hash:      h,
		key:       c.internKey(g),
		violation: math.NaN(),
	})
	for slot := h & c.mask; ; slot = (slot + 1) & c.mask {
		if c.table[slot] == 0 {
			c.table[slot] = int32(idx + 1)
			break
		}
	}
	return idx
}

// internKey copies g into the key arena.
func (c *genomeCache) internKey(g []byte) []byte {
	key := c.keys.alloc(len(g))
	copy(key, g)
	return key
}

func (c *genomeCache) grow() {
	nt := make([]int32, 2*len(c.table))
	mask := uint64(len(nt) - 1)
	for i := range c.entries {
		h := c.entries[i].hash
		for slot := h & mask; ; slot = (slot + 1) & mask {
			if nt[slot] == 0 {
				nt[slot] = int32(i + 1)
				break
			}
		}
	}
	c.table, c.mask = nt, mask
}
