package alloc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/phys"
)

func explainedGenome(t *testing.T, in *Instance) Genome {
	t.Helper()
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustExplain evaluates g on in and expands the valid evaluation.
func mustExplain(t *testing.T, in *Instance, g Genome) *Explanation {
	t.Helper()
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("genome %s invalid: %s", g, ev.Reason())
	}
	return in.Explain(g, ev)
}

func TestExplainMatchesEvaluate(t *testing.T) {
	in := mustInstance(t, 12)
	g := explainedGenome(t, in)
	ev := in.Evaluate(g)
	ex := mustExplain(t, in, g)
	if ex.Eval.MeanBER != ev.MeanBER || ex.Eval.MakespanCycles != ev.MakespanCycles {
		t.Error("explanation must embed the same evaluation")
	}
	// The per-lambda BERs must average to the per-communication BER,
	// bit for bit: Explain walks the budget through the direct
	// conversions, the kernel through its memo of them.
	for _, cb := range ex.Comms {
		var sum float64
		for _, lb := range cb.Lambdas {
			sum += lb.BER
		}
		mean := sum / float64(len(cb.Lambdas))
		if math.Float64bits(mean) != math.Float64bits(ev.CommBER[cb.Edge]) {
			t.Errorf("%s: explained mean BER %g vs evaluated %g", cb.Name, mean, ev.CommBER[cb.Edge])
		}
	}
	// Every loaded communication appears exactly once.
	if len(ex.Comms) != in.Edges() {
		t.Errorf("explained %d communications, want %d", len(ex.Comms), in.Edges())
	}
}

func TestExplainBudgetInternals(t *testing.T) {
	in := mustInstance(t, 12)
	g := explainedGenome(t, in)
	ex := mustExplain(t, in, g)
	for _, cb := range ex.Comms {
		if cb.Hops <= 0 {
			t.Errorf("%s: zero hops", cb.Name)
		}
		for _, lb := range cb.Lambdas {
			if lb.PathLossDB >= 0 {
				t.Errorf("%s ch%d: loss %v must be negative", cb.Name, lb.Channel, lb.PathLossDB)
			}
			if float64(lb.SignalDBm) >= -10 {
				t.Errorf("%s ch%d: arrival %v dBm cannot exceed the -10 dBm laser", cb.Name, lb.Channel, lb.SignalDBm)
			}
			if lb.SNR <= 0 {
				t.Errorf("%s ch%d: SNR %v", cb.Name, lb.Channel, lb.SNR)
			}
			if lb.LaserMW <= 0 {
				t.Errorf("%s ch%d: laser power %v", cb.Name, lb.Channel, lb.LaserMW)
			}
			// Noise terms are sorted strongest first and sum to the
			// total.
			var sum phys.MilliWatt
			for i, term := range lb.Noise {
				sum += term.PowerDBm.MilliWatt()
				if i > 0 && term.PowerDBm > lb.Noise[i-1].PowerDBm {
					t.Errorf("%s ch%d: noise terms not sorted", cb.Name, lb.Channel)
				}
			}
			if math.Abs(float64(sum-lb.NoiseTotalMW)) > 1e-18 {
				t.Errorf("%s ch%d: noise sum %v vs total %v", cb.Name, lb.Channel, sum, lb.NoiseTotalMW)
			}
		}
	}
}

func TestExplainMultiLambdaHasIntraTerms(t *testing.T) {
	in := mustInstance(t, 12)
	g := explainedGenome(t, in)
	ex := mustExplain(t, in, g)
	// c1 holds 4 wavelengths: each of its detectors must see 3 intra
	// terms from its own transfer.
	for _, cb := range ex.Comms {
		if cb.Edge != 1 {
			continue
		}
		for _, lb := range cb.Lambdas {
			intra := 0
			for _, term := range lb.Noise {
				if term.Intra {
					intra++
					if term.FromEdge != 1 {
						t.Error("intra term attributed to another communication")
					}
				}
			}
			if intra != 3 {
				t.Errorf("c1 ch%d: %d intra terms, want 3", lb.Channel, intra)
			}
		}
	}
}

func TestExplainRejectsInvalid(t *testing.T) {
	in := mustInstance(t, 8)
	g := in.NewZeroGenome()
	ev := in.Evaluate(g)
	if ev.Valid {
		t.Fatal("the all-zero genome must evaluate invalid")
	}
	defer func() {
		if recover() == nil {
			t.Error("an invalid evaluation must not be explainable")
		}
	}()
	in.Explain(g, ev)
}

func TestExplainString(t *testing.T) {
	in := mustInstance(t, 12)
	g := explainedGenome(t, in)
	ex := mustExplain(t, in, g)
	out := ex.String()
	for _, want := range []string{"link budget", "c1", "SNR", "dBm", "mW"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestBERTargetModeRaisesEnergyWithCrosstalk(t *testing.T) {
	// In BER-target mode a communication in a noisier environment
	// needs more laser power: compare c1 alone on many channels
	// (heavy intra crosstalk) against spread single channels.
	in := mustInstance(t, 8)
	em := in.Energy
	em.BERTarget = 1e-9
	in2, err := NewInstance(in.Fabric(), in.App, in.Map, 1, em)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := FromSets([][]int{{7}, {0}, {1}, {2}, {3}, {0}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := FromSets([][]int{{7}, {0, 1, 2, 3, 4, 5}, {1}, {6}, {3}, {0}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	evLean := in2.Evaluate(lean)
	evDense := in2.Evaluate(dense)
	if !evLean.Valid || !evDense.Valid {
		t.Fatalf("genomes invalid: %s / %s", evLean.Reason(), evDense.Reason())
	}
	// Per-bit laser energy on c1 (averaged over its channels) grows
	// with the crosstalk its own parallelism injects. Compare the
	// per-channel average power, which normalizes the time split.
	leanPower := evLean.CommEnergyFJ[1] / evLean.Schedule.Comm[1].Duration()
	densePower := evDense.CommEnergyFJ[1] / evDense.Schedule.Comm[1].Duration() / 6
	if densePower <= leanPower {
		t.Errorf("BER-target mode: per-channel power %v (dense) must exceed %v (lean)",
			densePower, leanPower)
	}
}

func TestBERTargetStricterCostsMore(t *testing.T) {
	in := mustInstance(t, 8)
	g := explainedGenome(t, in)
	energyAt := func(target float64) float64 {
		em := in.Energy
		em.BERTarget = target
		in2, err := NewInstance(in.Fabric(), in.App, in.Map, 1, em)
		if err != nil {
			t.Fatal(err)
		}
		ev := in2.Evaluate(g)
		if !ev.Valid {
			t.Fatal(ev.Reason())
		}
		return ev.BitEnergyFJ
	}
	if e9, e12 := energyAt(1e-9), energyAt(1e-12); e12 <= e9 {
		t.Errorf("stricter BER target must cost more energy: %v (1e-12) vs %v (1e-9)", e12, e9)
	}
}

func TestBERTargetZeroKeepsFixedTargetModel(t *testing.T) {
	in := mustInstance(t, 8)
	g := explainedGenome(t, in)
	ev := in.Evaluate(g)
	// Rebuilding with an explicit zero target must not change
	// anything.
	em := in.Energy
	em.BERTarget = 0
	in2, err := NewInstance(in.Fabric(), in.App, in.Map, 1, em)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := in2.Evaluate(g)
	if ev.BitEnergyFJ != ev2.BitEnergyFJ {
		t.Errorf("zero target changed energy: %v vs %v", ev.BitEnergyFJ, ev2.BitEnergyFJ)
	}
}
