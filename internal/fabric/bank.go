package fabric

import "fmt"

// Bank records which receiver micro-rings are in the ON (dropping)
// state during the time window under analysis: the ring tuned to grid
// channel ch in the receiver bank of ONI oni. The allocation/schedule
// layer fills one per communication window; the fabric layer only
// walks the optics against it. A fresh bank is the quiescent network,
// every micro-ring detuned. Internally it packs each ONI's micro-ring
// states into 64-bit words, so the evaluation kernel can install a
// communication's whole wavelength set with one word-wise OR (OrRow)
// instead of per-channel Set calls, and BankWalkDB reads the row words
// directly.
type Bank struct {
	channels int
	words    int // 64-bit words per ONI row: MaskWords(channels)
	on       []uint64
}

// MaskWords returns the number of 64-bit words of a wavelength bitmask
// covering channels comb channels — the row stride shared by Bank and
// the allocation layer's per-communication masks.
func MaskWords(channels int) int { return (channels + 63) / 64 }

// NewBank returns an all-OFF bank matrix for onis x channels rings.
func NewBank(onis, channels int) *Bank {
	w := MaskWords(channels)
	return &Bank{channels: channels, words: w, on: make([]uint64, onis*w)}
}

// Set switches the MR for channel ch at ONI oni.
func (b *Bank) Set(oni, ch int, state bool) {
	if uint(ch) >= uint(b.channels) {
		panic(fmt.Sprintf("fabric: bank channel %d outside [0,%d)", ch, b.channels))
	}
	bit := uint64(1) << (uint(ch) & 63)
	i := oni*b.words + ch>>6
	if state {
		b.on[i] |= bit
	} else {
		b.on[i] &^= bit
	}
}

// OrRow switches ON every micro-ring of ONI oni whose bit is set in
// the wavelength mask (laid out as by MaskWords: bit ch of word ch/64
// means comb channel ch). Bits beyond the comb size must be zero.
func (b *Bank) OrRow(oni int, mask []uint64) {
	row := b.on[oni*b.words : (oni+1)*b.words]
	if len(mask) > len(row) {
		panic(fmt.Sprintf("fabric: %d-word mask for a %d-word bank row", len(mask), len(row)))
	}
	for w := range mask {
		row[w] |= mask[w]
	}
}

// Reset detunes every micro-ring, returning the bank to the all-OFF
// state without reallocating. Evaluation kernels reuse one bank per
// worker this way.
func (b *Bank) Reset() {
	for i := range b.on {
		b.on[i] = 0
	}
}

// On reports whether the micro-ring for channel ch at ONI oni is ON.
func (b *Bank) On(oni, ch int) bool {
	if uint(ch) >= uint(b.channels) {
		panic(fmt.Sprintf("fabric: bank channel %d outside [0,%d)", ch, b.channels))
	}
	return b.on[oni*b.words+ch>>6]&(1<<(uint(ch)&63)) != 0
}
