package repro_test

import (
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/nsga2"
)

// plainProblem evaluates every genome of a paper instance on a fresh
// alloc.Evaluator, projected onto core's default objectives (time,
// energy, BER). A fresh evaluator's optics memo starts empty, and each
// communication's key carries its edge index, so no lookup within one
// evaluation can hit: every communication walks its optics.
type plainProblem struct{ in *alloc.Instance }

var plainObjectives = []alloc.Objective{alloc.ObjTime, alloc.ObjEnergy, alloc.ObjBER}

func (pp plainProblem) GenomeLen() int     { return pp.in.Edges() * pp.in.Channels() }
func (pp plainProblem) NumObjectives() int { return len(plainObjectives) }
func (pp plainProblem) AuxLen() int        { return 0 }

// NewWorker serves the problem as its own view: EvaluateInto keeps no
// state between calls.
func (pp plainProblem) NewWorker() nsga2.Worker { return pp }
func (pp plainProblem) EvaluateInto(dst []float64, genome []byte) float64 {
	g, err := alloc.FromBits(genome, pp.in.Edges(), pp.in.Channels())
	if err != nil {
		panic(err)
	}
	ev, err := alloc.NewEvaluator(pp.in)
	if err != nil {
		panic(err)
	}
	var out alloc.Eval
	ev.EvaluateInto(&out, g)
	out.ObjectivesInto(dst, plainObjectives)
	return out.Violation
}

// TestMemoRoutingIdenticalToPlain pins the memo end to end: a
// paper-instance GA run whose evaluations go through core's worker
// evaluator, its optics memo warm across every generation, produces
// bit-identical populations, counters and archive to a run that walks
// every communication's optics afresh.
func TestMemoRoutingIdenticalToPlain(t *testing.T) {
	cfg := nsga2.Config{PopSize: 120, Generations: 30, Seed: 42, ArchiveAll: true}

	pd, err := core.New(core.Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	withMemo, err := nsga2.Run(pd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	in, err := alloc.DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nsga2.Run(plainProblem{in}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if withMemo.Evaluations != plain.Evaluations ||
		withMemo.ValidEvaluations != plain.ValidEvaluations ||
		withMemo.DistinctEvaluated != plain.DistinctEvaluated ||
		withMemo.DistinctValid != plain.DistinctValid {
		t.Fatalf("counters diverge: memo %+v vs plain %+v", withMemo, plain)
	}
	if len(withMemo.Final) != len(plain.Final) {
		t.Fatalf("final population sizes diverge: %d vs %d", len(withMemo.Final), len(plain.Final))
	}
	for i := range plain.Final {
		a, b := withMemo.Final[i], plain.Final[i]
		if string(a.Genome) != string(b.Genome) || a.Rank != b.Rank ||
			math.Float64bits(a.Crowding) != math.Float64bits(b.Crowding) {
			t.Fatalf("final individual %d diverges", i)
		}
	}
	if len(withMemo.Archive) != len(plain.Archive) {
		t.Fatalf("archive sizes diverge: %d vs %d", len(withMemo.Archive), len(plain.Archive))
	}
	for i := range plain.Archive {
		a, b := withMemo.Archive[i], plain.Archive[i]
		if string(a.Genome) != string(b.Genome) {
			t.Fatalf("archive order diverges at %d", i)
		}
		if math.Float64bits(a.Violation) != math.Float64bits(b.Violation) {
			t.Fatalf("archive violation diverges at %d", i)
		}
		for k := range b.Objs {
			if math.Float64bits(a.Objs[k]) != math.Float64bits(b.Objs[k]) {
				t.Fatalf("archive objective (%d, %d) diverges: %v vs %v", i, k, a.Objs[k], b.Objs[k])
			}
		}
	}
}
