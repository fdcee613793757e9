package alloc

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// randomGenome draws a genome with the given set-bit density.
func randomGenome(rng *rand.Rand, edges, nw int, density float64) Genome {
	g := NewGenome(edges, nw)
	for i := range g.bits {
		if rng.Float64() < density {
			g.bits[i] = 1
		}
	}
	return g
}

func evalEqual(a, b Eval) bool {
	if a.Valid != b.Valid || a.Reason() != b.Reason() || a.Violation != b.Violation {
		return false
	}
	if a.MakespanCycles != b.MakespanCycles || a.BitEnergyFJ != b.BitEnergyFJ {
		// Inf == Inf holds, so invalid evals compare fine.
		if !(math.IsInf(a.MakespanCycles, 1) && math.IsInf(b.MakespanCycles, 1)) {
			return false
		}
	}
	if a.MeanBER != b.MeanBER && !(math.IsInf(a.MeanBER, 1) && math.IsInf(b.MeanBER, 1)) {
		return false
	}
	if a.WorstBER != b.WorstBER && !(math.IsInf(a.WorstBER, 1) && math.IsInf(b.WorstBER, 1)) {
		return false
	}
	if len(a.Counts) != len(b.Counts) || len(a.CommBER) != len(b.CommBER) || len(a.CommEnergyFJ) != len(b.CommEnergyFJ) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	for i := range a.CommBER {
		if a.CommBER[i] != b.CommBER[i] || a.CommEnergyFJ[i] != b.CommEnergyFJ[i] {
			return false
		}
	}
	return true
}

// TestEvaluatorMatchesWrapper drives both paths over a mix of valid
// and invalid random genomes and demands bit-identical results — the
// contract the GA's determinism rests on.
func TestEvaluatorMatchesWrapper(t *testing.T) {
	for _, nw := range []int{4, 8} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(nw)))
		// Random genomes are nearly always invalid under the
		// disjointness rule, so mix in heuristic allocations to cover
		// the valid path too.
		samples := make([]Genome, 0, 220)
		for i := 0; i < 200; i++ {
			density := 0.1 + 0.8*rng.Float64()
			samples = append(samples, randomGenome(rng, in.Edges(), nw, density))
		}
		for n := 1; n <= nw/2; n++ {
			for _, pol := range []Policy{FirstFit, MostUsed, LeastUsed} {
				if g, err := Assign(in, UniformCounts(in.Edges(), n), pol, nil); err == nil {
					samples = append(samples, g)
				}
			}
		}
		var valid, invalidN int
		for _, g := range samples {
			want := in.Evaluate(g)
			var got Eval
			ev.EvaluateInto(&got, g)
			if !evalEqual(want, got) {
				t.Fatalf("NW=%d genome %s: wrapper %+v, kernel %+v", nw, g, want, got)
			}
			if got.Valid {
				valid++
				if got.Schedule == nil {
					t.Fatal("valid eval lost its schedule")
				}
				if err := got.Schedule.Validate(in.App); err != nil {
					t.Fatalf("kernel schedule invalid: %v", err)
				}
			} else {
				invalidN++
			}
		}
		if valid == 0 || invalidN == 0 {
			t.Fatalf("NW=%d: want both valid and invalid samples, got %d/%d", nw, valid, invalidN)
		}
	}
}

// TestEvaluatorSteadyStateZeroAllocs is the tentpole property: after
// warm-up, evaluating a valid chromosome performs no heap
// allocations.
func TestEvaluatorSteadyStateZeroAllocs(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Eval
	ev.EvaluateInto(&out, g) // warm-up
	allocs := testing.AllocsPerRun(50, func() {
		ev.EvaluateInto(&out, g)
		if !out.Valid {
			t.Fatal(out.Reason())
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state EvaluateInto allocates %v objects per run, want 0", allocs)
	}
}

// TestEvaluatorInvalidZeroAllocs pins the reason-free invalid path:
// rejecting a chromosome — with both rule kinds firing — records the
// failure as indices and must not allocate. Reason() still formats
// the historical wording when a caller asks for it.
func TestEvaluatorInvalidZeroAllocs(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	// zero: every loaded communication misses its reservation;
	// ones: maximal shared-wavelength conflicts.
	zero := in.NewZeroGenome()
	ones := in.NewZeroGenome()
	for e := 0; e < in.Edges(); e++ {
		for ch := 0; ch < in.Channels(); ch++ {
			ones.Set(e, ch, true)
		}
	}
	var out Eval
	ev.EvaluateInto(&out, zero) // warm-up
	ev.EvaluateInto(&out, ones)
	for _, g := range []Genome{zero, ones} {
		allocs := testing.AllocsPerRun(50, func() {
			ev.EvaluateInto(&out, g)
			if out.Valid {
				t.Fatal("genome cannot be valid")
			}
		})
		if allocs != 0 {
			t.Errorf("invalid-path EvaluateInto allocates %v objects per run, want 0", allocs)
		}
	}
	ev.EvaluateInto(&out, zero)
	if r := out.Reason(); !strings.Contains(r, "reserves no wavelength") {
		t.Errorf("zero-genome reason = %q", r)
	}
	ev.EvaluateInto(&out, ones)
	if r := out.Reason(); !strings.Contains(r, "share wavelength") {
		t.Errorf("all-ones reason = %q", r)
	}
}

// TestEvaluatorScratchAliasing documents the lifetime rule: results
// alias the evaluator's scratch until Detach.
func TestEvaluatorScratchAliasing(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Eval
	ev.EvaluateInto(&a, g1)
	a.Detach()
	detachedCounts := append([]int(nil), a.Counts...)
	detachedBER := a.MeanBER

	var b Eval
	ev.EvaluateInto(&b, g2)
	for i := range a.Counts {
		if a.Counts[i] != detachedCounts[i] {
			t.Fatal("Detach did not copy Counts")
		}
	}
	if a.MeanBER != detachedBER {
		t.Fatal("detached eval mutated")
	}
	// b's counts are the all-ones vector, proving the scratch was
	// rewritten in place.
	for i, c := range b.Counts {
		if c != 1 {
			t.Fatalf("second eval counts[%d] = %d, want 1", i, c)
		}
	}
}

// TestEvaluatorShapeMismatch mirrors the wrapper's fast-reject path.
func TestEvaluatorShapeMismatch(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Eval
	ev.EvaluateInto(&out, NewGenome(2, 8))
	if out.Valid || out.Violation == 0 {
		t.Fatalf("shape mismatch accepted: %+v", out)
	}
	if NewEvaluatorMustErr() {
		t.Fatal("unreachable")
	}
}

// NewEvaluatorMustErr exercises the nil-instance guard.
func NewEvaluatorMustErr() bool {
	_, err := NewEvaluator(nil)
	return err == nil
}

// TestEvaluatorConvenienceEvaluate covers the value-returning form:
// the pooled Instance.Evaluate equals a held evaluator's EvaluateInto
// followed by Detach.
func TestEvaluatorConvenienceEvaluate(t *testing.T) {
	in, err := DefaultInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	g := in.NewZeroGenome()
	for e := 0; e < in.Edges(); e++ {
		g.Set(e, 0, true)
	}
	var got Eval
	ev.EvaluateInto(&got, g)
	got.Detach()
	want := in.Evaluate(g)
	if !evalEqual(want, got) {
		t.Fatalf("convenience form differs: %+v vs %+v", got, want)
	}
}

// TestInstanceEvaluateConcurrent pins the compatibility wrapper's
// contract: concurrent callers evaluate in parallel (pooled
// evaluators) and all observe identical results.
func TestInstanceEvaluateConcurrent(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := in.Evaluate(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := in.Evaluate(g)
				if !evalEqual(want, got) {
					t.Errorf("concurrent evaluation diverged: %+v vs %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
