package alloc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/ring"
)

// TestMWMemoMatchesMilliWatt runs the memo against the direct
// conversion on a random stream through a four-slot table, so almost
// every lookup evicts or collides. The stream mixes the special keys
// a bit-keyed table must keep apart: +0 and -0 (equal, different
// bits), ±Inf (-Inf is what a zeroed slot holds), NaN (never equal to
// itself) and -400 dBm (a valid key whose value underflows to 0).
func TestMWMemoMatchesMilliWatt(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -400, -10, -13}
	m := newMWMemo(2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var x float64
		switch r := rng.Intn(4); {
		case r == 0:
			x = special[rng.Intn(len(special))]
		case r == 1:
			// A small pool of repeating keys, so hits happen.
			x = -10 - float64(rng.Intn(8))*0.25
		default:
			x = -60 + 70*rng.Float64()
		}
		want := phys.DBm(x).MilliWatt()
		got := m.milliWatt(phys.DBm(x))
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("memo(%v) = %v (bits %#x), direct %v (bits %#x)", x, got,
				math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
		}
	}
}

// TestMWMemoSizing pins the table sizes the evaluator allocates.
func TestMWMemoSizing(t *testing.T) {
	for _, c := range []struct {
		nw   int
		bits uint
	}{{1, 8}, {2, 8}, {4, 10}, {8, 12}, {12, 13}, {16, 13}, {64, 13}} {
		if got := memoBits(c.nw); got != c.bits {
			t.Errorf("memoBits(%d) = %d, want %d", c.nw, got, c.bits)
		}
	}
}

// TestMemoKernelMatchesExplainBitExact is the oracle test of the
// memoized optics kernel. One long-lived evaluator per instance, its
// memo warm across thousands of genomes, evaluates random valid
// genomes on both fabrics, at NW 4/8/12, in both laser-sizing modes.
// Explain walks the same budget through the direct conversions, so
// every communication's BER and laser energy must agree bit for bit:
// the mean of Explain's per-lambda BERs against CommBER, and
// Energy.EnergyFJ over Explain's LaserMWs against CommEnergyFJ.
func TestMemoKernelMatchesExplainBitExact(t *testing.T) {
	perInstance := 350
	if testing.Short() {
		perInstance = 50
	}
	valid := 0
	for _, backend := range []string{"ring", "crossbar"} {
		for _, nw := range []int{4, 8, 12} {
			for _, berTarget := range []float64{0, 1e-9} {
				var f fabric.Fabric
				var err error
				if backend == "ring" {
					f, err = ring.New(ring.DefaultConfig(nw))
				} else {
					f, err = crossbar.New(crossbar.DefaultConfig(nw))
				}
				if err != nil {
					t.Fatal(err)
				}
				em := energy.Default()
				em.BERTarget = berTarget
				in, err := NewInstance(f, graph.PaperApp(), graph.PaperMapping(), 1, em)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(in)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(nw)*7 + int64(len(backend))))
				counts := make([]int, in.Edges())
				var out Eval
				for n := 0; n < perInstance; {
					for i := range counts {
						counts[i] = 1 + rng.Intn((nw+1)/2)
					}
					g, err := Assign(in, counts, RandomFit, rng)
					if err != nil {
						continue // infeasible counts for this draw
					}
					ev.EvaluateInto(&out, g)
					if !out.Valid {
						continue
					}
					n++
					valid++
					ex := mustExplain(t, in, g)
					for _, cb := range ex.Comms {
						var sum float64
						powers := make([]phys.MilliWatt, 0, len(cb.Lambdas))
						for _, lb := range cb.Lambdas {
							sum += lb.BER
							powers = append(powers, lb.LaserMW)
						}
						mean := sum / float64(len(cb.Lambdas))
						fj := in.Energy.EnergyFJ(powers, cb.Window.Duration())
						if math.Float64bits(mean) != math.Float64bits(out.CommBER[cb.Edge]) ||
							math.Float64bits(fj) != math.Float64bits(out.CommEnergyFJ[cb.Edge]) {
							t.Fatalf("%s NW %d BER target %g, genome %s, %s: explained BER %g / %g fJ, kernel %g / %g fJ",
								backend, nw, berTarget, g, cb.Name, mean, fj, out.CommBER[cb.Edge], out.CommEnergyFJ[cb.Edge])
						}
					}
				}
			}
		}
	}
	t.Logf("%d valid genomes matched bit for bit", valid)
}
