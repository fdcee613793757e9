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
