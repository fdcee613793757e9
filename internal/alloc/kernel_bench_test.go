package alloc

import (
	"math/rand"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/graph"
)

// BenchmarkEvaluateKernelCrossbar measures the evaluator's miss path
// on the multi-layer crossbar backend: the same kernel as the ring's
// BenchmarkEvaluateKernel driven through the fabric interface with the
// crossbar's overlap-by-destination conflict structure.
//
// A crossbar communication's memo key holds one bank row, so valid
// paper genomes at NW 8 share a few thousand configurations and a
// genome cycle would time memo hits. Instead the optics memo is
// emptied before every evaluation, so each communication walks its
// optics, as the kernel did before the memo. The dB -> mW memo stays
// warm, as it was then. The reset clears a 256-slot index and keeps
// every array's capacity.
//
// CI gates it at 0 allocs/op, so neither the fabric indirection nor a
// memo miss may allocate, and holds it to 15 % of the committed
// baseline.
func BenchmarkEvaluateKernelCrossbar(b *testing.B) {
	in, ev := crossbarKernel(b)
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		b.Fatal(err)
	}
	var out Eval
	ev.EvaluateInto(&out, g) // warm-up: scratch and memo growth
	ev.memo.reset()
	ev.EvaluateInto(&out, g)
	if n := transmitting(in, &out); len(ev.memo.ents) != n || n == 0 {
		b.Fatalf("%d memo entries after one evaluation from empty, want one per communication (%d)", len(ev.memo.ents), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.memo.reset()
		ev.EvaluateInto(&out, g)
		if !out.Valid {
			b.Fatal(out.Reason())
		}
	}
}

// crossbarKernel returns the paper's application on an NW 8 crossbar
// and an evaluator over it.
func crossbarKernel(b *testing.B) (*Instance, *Evaluator) {
	b.Helper()
	x, err := crossbar.New(crossbar.DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	in, err := NewInstance(x, graph.PaperApp(), graph.PaperMapping(), 1, energy.Default())
	if err != nil {
		b.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		b.Fatal(err)
	}
	return in, ev
}

// BenchmarkEvaluateKernelDense measures the miss path on genomes of
// the GA's initial population: every gene set with probability 0.5,
// so each communication reserves about NW/2 = 4 wavelengths and its
// crosstalk sums run over about 4 x 4 channel pairs. It cycles 256
// such genomes on the NW 8 crossbar, where 96 % of them are valid (on
// the ring a density-0.5 genome almost never is: 4 in 20 000), and
// empties the optics memo before every evaluation, as
// BenchmarkEvaluateKernelCrossbar does. CI gates it at 0 allocs/op.
func BenchmarkEvaluateKernelDense(b *testing.B) {
	in, ev := crossbarKernel(b)
	rng := rand.New(rand.NewSource(1))
	var out Eval
	gs := make([]Genome, 0, 256)
	for len(gs) < cap(gs) {
		g := in.NewZeroGenome()
		for i := range g.Bits() {
			if rng.Float64() < 0.5 {
				g.Bits()[i] = 1
			}
		}
		if ev.EvaluateInto(&out, g); out.Valid {
			gs = append(gs, g)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.memo.reset()
		ev.EvaluateInto(&out, gs[i%len(gs)])
		if !out.Valid {
			b.Fatal(out.Reason())
		}
	}
}
