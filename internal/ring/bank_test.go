package ring

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
)

// TestMaskWords pins the bitmask stride shared with the allocation
// layer.
func TestMaskWords(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for channels, want := range cases {
		if got := fabric.MaskWords(channels); got != want {
			t.Errorf("fabric.MaskWords(%d) = %d, want %d", channels, got, want)
		}
	}
}

// TestBankOrRowMatchesSets proves the word-wise row install is
// equivalent to per-channel Set calls, across word-boundary comb
// sizes and random masks.
func TestBankOrRowMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, channels := range []int{3, 8, 64, 65, 130} {
		words := fabric.MaskWords(channels)
		for trial := 0; trial < 50; trial++ {
			onis := 2 + rng.Intn(6)
			mask := make([]uint64, words)
			for ch := 0; ch < channels; ch++ {
				if rng.Intn(2) == 0 {
					mask[ch>>6] |= 1 << (uint(ch) & 63)
				}
			}
			oni := rng.Intn(onis)

			viaOr := fabric.NewBank(onis, channels)
			viaOr.OrRow(oni, mask)
			viaSet := fabric.NewBank(onis, channels)
			for ch := 0; ch < channels; ch++ {
				if mask[ch>>6]&(1<<(uint(ch)&63)) != 0 {
					viaSet.Set(oni, ch, true)
				}
			}
			for o := 0; o < onis; o++ {
				for ch := 0; ch < channels; ch++ {
					if viaOr.On(o, ch) != viaSet.On(o, ch) {
						t.Fatalf("channels=%d oni=%d ch=%d: OrRow %v, Set %v",
							channels, o, ch, viaOr.On(o, ch), viaSet.On(o, ch))
					}
				}
			}
		}
	}
}

// TestBankOrRowAccumulates proves OrRow merges with existing state
// instead of overwriting it, and Reset clears everything.
func TestBankOrRowAccumulates(t *testing.T) {
	b := fabric.NewBank(3, 8)
	b.Set(1, 0, true)
	b.OrRow(1, []uint64{0b10})
	if !b.On(1, 0) || !b.On(1, 1) {
		t.Fatal("OrRow must OR into the existing row")
	}
	if b.On(0, 0) || b.On(2, 1) {
		t.Fatal("OrRow leaked into other ONI rows")
	}
	b.Reset()
	for o := 0; o < 3; o++ {
		for ch := 0; ch < 8; ch++ {
			if b.On(o, ch) {
				t.Fatal("Reset left a micro-ring on")
			}
		}
	}
}

// TestBankChannelBoundsPanic pins the fail-loud contract for
// out-of-comb channels, which the packed representation would
// otherwise silently mis-index.
func TestBankChannelBoundsPanic(t *testing.T) {
	b := fabric.NewBank(2, 8)
	for name, f := range map[string]func(){
		"Set": func() { b.Set(0, 8, true) },
		"On":  func() { _ = b.On(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an out-of-range channel must panic", name)
				}
			}()
			f()
		}()
	}
}
