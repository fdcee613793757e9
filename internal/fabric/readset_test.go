package fabric_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/ring"
)

// TestLossReadSetContract holds every shipped backend, and the Budget
// composed on it, to the read-set contract the evaluator's optics memo
// keys on: TransitLossDB reads the bank only at the ONIs of
// p.ONIs()[1:] before p.Dst, the budget's arrivals only up to and
// including the detector, and all three are pure. Each trial computes
// a loss, scribbles random states over every other bank row, and
// requires the same bits again.
func TestLossReadSetContract(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		r, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		x, err := crossbar.New(crossbar.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		checkReadSet(t, "ring", r, rand.New(rand.NewSource(int64(nw))))
		checkReadSet(t, "crossbar", x, rand.New(rand.NewSource(int64(nw))))
	}
}

func checkReadSet(t *testing.T, name string, f fabric.Fabric, rng *rand.Rand) {
	t.Helper()
	n, nw := f.Size(), f.Channels()
	bud := fabric.NewBudget(f)
	bank := fabric.NewBank(n, nw)
	// scribble randomizes every bank row outside read.
	scribble := func(read []int) {
		for oni := 0; oni < n; oni++ {
			kept := false
			for _, r := range read {
				kept = kept || r == oni
			}
			if kept {
				continue
			}
			for ch := 0; ch < nw; ch++ {
				bank.Set(oni, ch, rng.Intn(2) == 0)
			}
		}
	}
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s NW %d: %s moved from %v to %v when rows outside the read set changed", name, nw, what, a, b)
		}
	}
	for trial := 0; trial < 300; trial++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		p, err := f.PathBetween(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for oni := 0; oni < n; oni++ {
			for ch := 0; ch < nw; ch++ {
				bank.Set(oni, ch, rng.Intn(3) == 0)
			}
		}
		ch, detCh := rng.Intn(nw), rng.Intn(nw)
		read := p.ONIs()[1:]
		transit := float64(f.TransitLossDB(p, ch, bank))
		scribble(read[:len(read)-1])
		same("TransitLossDB", transit, float64(f.TransitLossDB(p, ch, bank)))
		signal := float64(bud.SignalArrivalDB(p, ch, bank))
		scribble(read)
		same("SignalArrivalDB", signal, float64(bud.SignalArrivalDB(p, ch, bank)))

		// A detector on the path: the read set ends there.
		k := 1 + rng.Intn(len(read))
		det := read[k-1]
		along, err := bud.ArrivalAlongDB(p, det, ch, detCh, bank)
		if err != nil {
			// The crossbar reaches only its own destination.
			continue
		}
		scribble(read[:k])
		again, err := bud.ArrivalAlongDB(p, det, ch, detCh, bank)
		if err != nil {
			t.Fatal(err)
		}
		same("ArrivalAlongDB", float64(along), float64(again))
	}
}
