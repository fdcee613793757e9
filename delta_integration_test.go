package repro_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nsga2"
)

// plainProblem forwards only the base nsga2.Problem surface of a
// core.Problem, hiding NewWorker, so an engine run over it evaluates
// every genome through the Problem's own full-kernel EvaluateInto and
// never touches the delta kernel.
type plainProblem struct{ p *core.Problem }

func (pp plainProblem) GenomeLen() int     { return pp.p.GenomeLen() }
func (pp plainProblem) NumObjectives() int { return pp.p.NumObjectives() }
func (pp plainProblem) EvaluateInto(dst []float64, g, p1, p2 []byte) float64 {
	return pp.p.EvaluateInto(dst, g, p1, p2)
}

// TestDeltaRoutingIdenticalToPlain pins the tentpole contract end to
// end: a paper-instance GA run whose evaluations are routed through
// the delta kernel (one-row, few-row and crossover replays, full
// fallbacks) produces bit-identical populations, counters and archive
// to a run whose problem evaluates everything with the full kernel.
func TestDeltaRoutingIdenticalToPlain(t *testing.T) {
	cfg := nsga2.Config{PopSize: 120, Generations: 30, Seed: 42, ArchiveAll: true}

	pd, err := core.New(core.Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	withDelta, err := nsga2.Run(pd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pp, err := core.New(core.Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nsga2.Run(plainProblem{pp}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if withDelta.Evaluations != plain.Evaluations ||
		withDelta.ValidEvaluations != plain.ValidEvaluations ||
		withDelta.DistinctEvaluated != plain.DistinctEvaluated ||
		withDelta.DistinctValid != plain.DistinctValid {
		t.Fatalf("counters diverge: delta %+v vs plain %+v", withDelta, plain)
	}
	if len(withDelta.Final) != len(plain.Final) {
		t.Fatalf("final population sizes diverge: %d vs %d", len(withDelta.Final), len(plain.Final))
	}
	for i := range plain.Final {
		a, b := withDelta.Final[i], plain.Final[i]
		if string(a.Genome) != string(b.Genome) || a.Rank != b.Rank ||
			math.Float64bits(a.Crowding) != math.Float64bits(b.Crowding) {
			t.Fatalf("final individual %d diverges", i)
		}
	}
	if len(withDelta.Archive) != len(plain.Archive) {
		t.Fatalf("archive sizes diverge: %d vs %d", len(withDelta.Archive), len(plain.Archive))
	}
	for i := range plain.Archive {
		a, b := withDelta.Archive[i], plain.Archive[i]
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
