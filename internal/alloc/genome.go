// Package alloc implements the wavelength-allocation layer of the
// paper: the binary chromosome encoding of Section III-D (Nl x NW
// genes, one per communication/wavelength pair), the validity rules,
// the full evaluation kernel combining the time model, the crosstalk
// BER model and the bit-energy model, and the classic wavelength
// assignment heuristics of the related-work section (First-Fit,
// Random, Most-Used, Least-Used) used as baselines.
package alloc

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Genome is the paper's chromosome: a flat row-major bit matrix with
// one row of NW genes per communication. Gene (e, ch) set to 1 means
// wavelength channel ch is reserved for communication e.
type Genome struct {
	bits  []byte
	edges int
	nw    int
}

// NewGenome returns an all-zero chromosome for edges communications
// over an nw-channel comb.
func NewGenome(edges, nw int) Genome {
	return Genome{bits: make([]byte, edges*nw), edges: edges, nw: nw}
}

// Edges returns Nl, the number of communications.
func (g Genome) Edges() int { return g.edges }

// Channels returns NW.
func (g Genome) Channels() int { return g.nw }

// Len returns the number of genes (Nl x NW).
func (g Genome) Len() int { return len(g.bits) }

// Get reports whether channel ch is reserved for edge e.
func (g Genome) Get(e, ch int) bool { return g.bits[e*g.nw+ch] != 0 }

// Set reserves (or releases) channel ch for edge e.
func (g Genome) Set(e, ch int, on bool) {
	if on {
		g.bits[e*g.nw+ch] = 1
	} else {
		g.bits[e*g.nw+ch] = 0
	}
}

// Bits exposes the underlying gene slice for the genetic operators.
// The slice is the genome's own storage: mutating it mutates the
// genome.
func (g Genome) Bits() []byte { return g.bits }

// FromBits wraps a gene slice produced by the genetic engine back
// into a genome of the given shape. The slice is not copied.
func FromBits(bits []byte, edges, nw int) (Genome, error) {
	if len(bits) != edges*nw {
		return Genome{}, fmt.Errorf("alloc: %d genes cannot shape %dx%d", len(bits), edges, nw)
	}
	return Genome{bits: bits, edges: edges, nw: nw}, nil
}

// Clone deep-copies the genome.
func (g Genome) Clone() Genome {
	nb := make([]byte, len(g.bits))
	copy(nb, g.bits)
	return Genome{bits: nb, edges: g.edges, nw: g.nw}
}

// ChannelSet returns the reserved channel indices of edge e, in
// ascending order.
func (g Genome) ChannelSet(e int) []int {
	var set []int
	for ch := 0; ch < g.nw; ch++ {
		if g.Get(e, ch) {
			set = append(set, ch)
		}
	}
	return set
}

// MaskInto decodes the chromosome into per-edge wavelength bitmasks:
// row e occupies dst[e*words : (e+1)*words], with bit ch of the row
// (bit ch&63 of word ch>>6) set iff gene (e, ch) is nonzero. words
// must be at least fabric.MaskWords(Channels()) and dst must hold
// Edges()*words words. The evaluation kernel consumes these rows
// natively: set disjointness is a word-wise AND, wavelength counts are
// popcounts.
func (g Genome) MaskInto(dst []uint64, words int) {
	if g.edges*words == 0 {
		return
	}
	_ = dst[g.edges*words-1]
	for e := 0; e < g.edges; e++ {
		row := dst[e*words : (e+1)*words]
		genes := g.bits[e*g.nw : (e+1)*g.nw]
		for w := range row {
			// Word w holds channels [64w, 64w+64), eight genes per
			// step, then the comb's tail one by one.
			end := min(64*(w+1), len(genes))
			var word uint64
			ch := 64 * w
			for ; ch+8 <= end; ch += 8 {
				word |= uint64(nonzeroBytes(binary.LittleEndian.Uint64(genes[ch:]))) << (uint(ch) & 63)
			}
			for ; ch < end; ch++ {
				if genes[ch] != 0 {
					word |= 1 << (uint(ch) & 63)
				}
			}
			row[w] = word
		}
	}
}

// nonzeroBytes returns the byte whose bit i is set iff byte i of x
// (little-endian) is nonzero. The shifts fold each byte's bits into
// its lowest; the multiply then gathers the eight lowest bits, which
// land on distinct product bits without carries, into the top byte.
func nonzeroBytes(x uint64) uint8 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	return uint8((x & 0x0101010101010101) * 0x0102040810204080 >> 56)
}

// CountsInto writes the per-edge number of reserved wavelengths into
// dst, which must hold Edges() entries, and returns dst[:Edges()]: the
// "[2, 8, 6, 6, 4, 7]" vectors printed beside the paper's Pareto
// plots.
func (g Genome) CountsInto(dst []int) []int {
	dst = dst[:g.edges]
	for e := range dst {
		n := 0
		for _, b := range g.bits[e*g.nw : (e+1)*g.nw] {
			if b != 0 {
				n++
			}
		}
		dst[e] = n
	}
	return dst
}

// String renders the chromosome in the paper's notation:
// "1000/0001/0001/0001/1000/1000".
func (g Genome) String() string {
	var sb strings.Builder
	sb.Grow(g.edges * (g.nw + 1))
	for e := 0; e < g.edges; e++ {
		if e > 0 {
			sb.WriteByte('/')
		}
		for ch := 0; ch < g.nw; ch++ {
			if g.Get(e, ch) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// Key returns a compact map key identifying the genotype; the archive
// uses it to count distinct valid solutions (Table II).
func (g Genome) Key() string { return string(g.bits) }

// ParseGenome reads the paper's slash-separated notation (slashes and
// spaces optional) into a genome of the given shape.
func ParseGenome(s string, edges, nw int) (Genome, error) {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '/', ' ', '\t':
			return -1
		}
		return r
	}, s)
	if len(clean) != edges*nw {
		return Genome{}, fmt.Errorf("alloc: %q has %d genes, want %d (%dx%d)", s, len(clean), edges*nw, edges, nw)
	}
	g := NewGenome(edges, nw)
	for i, c := range clean {
		switch c {
		case '0':
		case '1':
			g.bits[i] = 1
		default:
			return Genome{}, fmt.Errorf("alloc: invalid gene %q in %q", c, s)
		}
	}
	return g, nil
}

// FromSets builds a genome from explicit per-edge channel sets.
func FromSets(sets [][]int, nw int) (Genome, error) {
	g := NewGenome(len(sets), nw)
	for e, set := range sets {
		for _, ch := range set {
			if ch < 0 || ch >= nw {
				return Genome{}, fmt.Errorf("alloc: edge %d channel %d outside [0,%d)", e, ch, nw)
			}
			if g.Get(e, ch) {
				return Genome{}, fmt.Errorf("alloc: edge %d channel %d listed twice", e, ch)
			}
			g.Set(e, ch, true)
		}
	}
	return g, nil
}
