package fabric

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/phys"
)

// TestBankWalkPartialSums holds the open walk ArrivalsDB uses to
// BankWalkDB: walked on ring by ring, its sum at every upto has the
// bits of a fresh BankWalkDB(par, oni, ch, upto, bank), and so does a
// walk that skips ahead over a random ascending subset. Channels of
// multi-word rows and channels past the comb (no resonant ring)
// included.
func TestBankWalkPartialSums(t *testing.T) {
	par := phys.DefaultParams()
	rng := rand.New(rand.NewSource(5))
	same := func(a, b phys.DB) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	for _, nw := range []int{1, 4, 8, 65, 130} {
		bank := NewBank(3, nw)
		for trial := 0; trial < 20; trial++ {
			for oni := 0; oni < 3; oni++ {
				for ch := 0; ch < nw; ch++ {
					bank.Set(oni, ch, rng.Intn(3) == 0)
				}
			}
			oni := rng.Intn(3)
			for ch := 0; ch <= nw; ch++ {
				w := newBankWalk(&par, oni, ch, bank)
				for upto := 0; upto <= nw; upto++ {
					if got, want := w.to(upto), BankWalkDB(par, oni, ch, upto, bank); !same(got, want) {
						t.Fatalf("NW %d ONI %d channel %d: walk to %d sums %v, BankWalkDB %v", nw, oni, ch, upto, got, want)
					}
				}
				w = newBankWalk(&par, oni, ch, bank)
				for upto := 0; upto <= nw; upto += 1 + rng.Intn(4) {
					if got, want := w.to(upto), BankWalkDB(par, oni, ch, upto, bank); !same(got, want) {
						t.Fatalf("NW %d ONI %d channel %d: skipping walk to %d sums %v, BankWalkDB %v", nw, oni, ch, upto, got, want)
					}
				}
			}
		}
	}
}
