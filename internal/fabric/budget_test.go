package fabric_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/phys"
	"repro/internal/ring"
)

// shippedFabrics returns every shipped backend at an nw-channel comb.
func shippedFabrics(t *testing.T, nw int) map[string]fabric.Fabric {
	t.Helper()
	r, err := ring.New(ring.DefaultConfig(nw))
	if err != nil {
		t.Fatal(err)
	}
	x, err := crossbar.New(crossbar.DefaultConfig(nw))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fabric.Fabric{"ring": r, "crossbar": x}
}

// randomOn returns a bank of f's shape with each micro-ring ON with
// probability 1/3.
func randomOn(rng *rand.Rand, f fabric.Fabric) *fabric.Bank {
	bank := fabric.NewBank(f.Size(), f.Channels())
	for oni := 0; oni < f.Size(); oni++ {
		for ch := 0; ch < f.Channels(); ch++ {
			bank.Set(oni, ch, rng.Intn(3) == 0)
		}
	}
	return bank
}

// TestPrefixToDestinationIsPath holds both fabrics to Prefix(p.Dst) ==
// p, with the same transit on every channel. A crossbar path visits
// two ONIs over N-src resources, so a prefix cut after its first hop
// would keep one resource and lose the rest of the transit.
func TestPrefixToDestinationIsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, f := range shippedFabrics(t, 8) {
		bank := randomOn(rng, f)
		for src := 0; src < f.Size(); src++ {
			for dst := 0; dst < f.Size(); dst++ {
				if src == dst {
					continue
				}
				p, err := f.PathBetween(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				pre, err := p.Prefix(p.Dst)
				if err != nil {
					t.Fatalf("%s %d->%d: prefix to the destination: %v", name, src, dst, err)
				}
				if !reflect.DeepEqual(pre, p) {
					t.Fatalf("%s %d->%d: prefix to the destination is %+v, want the path %+v", name, src, dst, pre, p)
				}
				for ch := 0; ch < f.Channels(); ch++ {
					a, b := f.TransitLossDB(pre, ch, bank), f.TransitLossDB(p, ch, bank)
					if math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
						t.Fatalf("%s %d->%d channel %d: prefix transit %v, path transit %v", name, src, dst, ch, a, b)
					}
				}
			}
		}
	}
}

// TestArrivalsMatchPairwise holds ArrivalsDB to ArrivalAlongDB bit for
// bit on both fabrics, multi-word combs included: random channel sets
// travel random paths to every ONI the path crosses and to one it
// does not, against random banks.
func TestArrivalsMatchPairwise(t *testing.T) {
	for _, nw := range []int{4, 8, 16, 65} {
		rng := rand.New(rand.NewSource(int64(nw)))
		for name, f := range shippedFabrics(t, nw) {
			bud := fabric.NewBudget(f)
			for trial := 0; trial < 60; trial++ {
				src, dst := rng.Intn(f.Size()), rng.Intn(f.Size())
				if src == dst {
					continue
				}
				p, err := f.PathBetween(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				bank := randomOn(rng, f)
				chs := rng.Perm(nw)[:1+rng.Intn(nw)]
				detChs := append([]int(nil), rng.Perm(nw)[:1+rng.Intn(nw)]...)
				sort.Ints(detChs)
				got := make([]phys.DB, len(chs)*len(detChs))
				for det := 0; det < f.Size(); det++ {
					_, reach := p.Prefix(det)
					err := bud.ArrivalsDB(got, p, det, chs, detChs, bank)
					if (err == nil) != (reach == nil) {
						t.Fatalf("%s NW %d %d->%d det %d: ArrivalsDB error %v, Prefix error %v", name, nw, src, dst, det, err, reach)
					}
					if err != nil {
						continue
					}
					for i, ch := range chs {
						for j, detCh := range detChs {
							want, err := bud.ArrivalAlongDB(p, det, ch, detCh, bank)
							if err != nil {
								t.Fatal(err)
							}
							if g := got[i*len(detChs)+j]; math.Float64bits(float64(g)) != math.Float64bits(float64(want)) {
								t.Fatalf("%s NW %d %d->%d det %d: channel %d at detector %d arrives %v, pairwise %v",
									name, nw, src, dst, det, ch, detCh, g, want)
							}
						}
					}
				}
			}
		}
	}
}
