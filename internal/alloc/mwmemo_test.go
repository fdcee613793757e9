package alloc

import (
	"fmt"
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
// genomes on both fabrics, at NW 4/8/12. Explain walks the same
// budget through the direct conversions, so every communication's BER
// and laser energy must agree bit for bit: the mean of Explain's
// per-lambda BERs against CommBER, and the energy model's EnergyFJ over
// Explain's LaserMWs against CommEnergyFJ.
func TestMemoKernelMatchesExplainBitExact(t *testing.T) {
	perInstance := 350
	if testing.Short() {
		perInstance = 50
	}
	valid := 0
	for _, backend := range []string{"ring", "crossbar"} {
		for _, nw := range []int{4, 8, 12} {
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
			in, err := NewInstance(f, graph.PaperApp(), graph.PaperMapping(), 1, energy.Default())
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
					fj := in.energy.EnergyFJ(powers, cb.Window.Duration())
					if math.Float64bits(mean) != math.Float64bits(out.CommBER[cb.Edge]) ||
						math.Float64bits(fj) != math.Float64bits(out.CommEnergyFJ[cb.Edge]) {
						t.Fatalf("%s NW %d, genome %s, %s: explained BER %g / %g fJ, kernel %g / %g fJ",
							backend, nw, g, cb.Name, mean, fj, out.CommBER[cb.Edge], out.CommEnergyFJ[cb.Edge])
					}
				}
			}
		}
	}
	t.Logf("%d valid genomes matched bit for bit", valid)
}

// TestKernelMatchesExplainWideInputs runs the kernel-versus-Explain
// bit-exact check of TestMemoKernelMatchesExplainBitExact past the
// paper's six communications: random layered applications, mapped
// injectively and shared-core (self edges included); an application
// of more than 64 communications, whose edge-set rows take two words;
// and NW 65, whose wavelength masks take two words. Every application
// runs on both fabrics, through one warm evaluator per instance.
func TestKernelMatchesExplainWideInputs(t *testing.T) {
	type appCase struct {
		name   string
		nw     int
		layers int // 0: the paper's application and mapping
		width  int
		prob   float64 // edge probability between adjacent layers
		shared bool
		seed   int64
	}
	cases := []appCase{
		{name: "layered", nw: 16, layers: 3, width: 4, prob: 0.5, seed: 1},
		{name: "layered", nw: 16, layers: 4, width: 4, prob: 0.3, seed: 2},
		// More tasks than cores: some edges become self edges.
		{name: "layered-shared", nw: 16, layers: 5, width: 4, prob: 0.3, shared: true, seed: 4},
		{name: "layered-shared", nw: 16, layers: 4, width: 6, prob: 0.2, shared: true, seed: 2},
		{name: "paper", nw: 65},
		{name: "wide", nw: 65, layers: 5, width: 6, prob: 0.6, shared: true, seed: 5},
	}
	perInstance := 12
	if testing.Short() {
		perInstance = 3
	}
	for _, c := range cases {
		app, m := graph.PaperApp(), graph.PaperMapping()
		if c.layers > 0 {
			rng := rand.New(rand.NewSource(c.seed))
			var err error
			if app, err = graph.Layered(rng, c.layers, c.width, c.prob, graph.DefaultGenConfig()); err != nil {
				t.Fatal(err)
			}
			if c.shared {
				m, err = graph.SharedRandomMapping(rng, app, 16)
			} else {
				m, err = graph.RandomMapping(rng, app, 16)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if c.name == "wide" && app.NumEdges() <= 64 {
			t.Fatalf("wide application has %d communications, want more than 64", app.NumEdges())
		}
		self := 0
		for _, e := range app.Edges {
			if m[e.Src] == m[e.Dst] {
				self++
			}
		}
		if c.shared && self == 0 {
			t.Fatalf("%s seed %d: no self edge under the shared-core mapping", c.name, c.seed)
		}
		t.Logf("%s seed %d: %d communications, %d self edges", c.name, c.seed, app.NumEdges(), self)
		for _, backend := range []string{"ring", "crossbar"} {
			base := memoConfig{backend: backend, nw: c.nw}.instance(t)
			if base.Fabric().Size() != 16 {
				t.Fatalf("%s has %d ONIs, the mappings assume 16", backend, base.Fabric().Size())
			}
			in, err := NewInstance(base.Fabric(), app, m, 1, energy.Default())
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s(%d comms)/%s/NW%d", c.name, in.Edges(), backend, c.nw)
			rng := rand.New(rand.NewSource(c.seed*31 + int64(c.nw)))
			counts := make([]int, in.Edges())
			var out Eval
			n := 0
			for tries := 0; n < perInstance && tries < 200*perInstance; tries++ {
				// Mostly single wavelengths, so the larger
				// applications stay feasible, with some wider
				// sets for the crosstalk sums.
				for i := range counts {
					counts[i] = 1
					if rng.Intn(3) == 0 {
						counts[i] += rng.Intn(1 + c.nw/4)
					}
				}
				g, err := Assign(in, counts, RandomFit, rng)
				if err != nil {
					continue // infeasible counts for this draw
				}
				if ev.EvaluateInto(&out, g); !out.Valid {
					continue
				}
				requireExplained(t, ctx, in, g, &out)
				n++
			}
			if n < perInstance {
				t.Fatalf("%s: only %d of %d valid genomes drawn", ctx, n, perInstance)
			}
		}
	}
}
