package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/ring"
)

// finiteInstances caches the fuzz target's instances: building one
// costs far more than evaluating a genome on it.
var finiteInstances struct {
	sync.Mutex
	m map[string]*Instance
}

// finiteInstance builds (or reuses) the instance for one fuzz case:
// the ring or crossbar fabric at comb size nw, under the paper
// workload, a 24-task chain load-balanced over the 16 cores, or a
// 12-task chain packed three tasks per core (self edges).
func finiteInstance(t *testing.T, backend, workload, nw int) *Instance {
	t.Helper()
	key := fmt.Sprint(backend, workload, nw)
	finiteInstances.Lock()
	defer finiteInstances.Unlock()
	if in, ok := finiteInstances.m[key]; ok {
		return in
	}
	var f fabric.Fabric
	var err error
	if backend == 0 {
		f, err = ring.New(ring.DefaultConfig(nw))
	} else {
		f, err = crossbar.New(crossbar.DefaultConfig(nw))
	}
	if err != nil {
		t.Fatal(err)
	}
	app, m := graph.PaperApp(), graph.PaperMapping()
	rng := rand.New(rand.NewSource(1))
	switch workload {
	case 1:
		if app, err = graph.Chain(rng, 24, graph.DefaultGenConfig()); err == nil {
			m, err = graph.SharedRandomMapping(rng, app, 16)
		}
	case 2:
		if app, err = graph.Chain(rng, 12, graph.DefaultGenConfig()); err == nil {
			m = make(graph.Mapping, 12)
			for i := range m {
				m[i] = i / 3
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(f, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	if finiteInstances.m == nil {
		finiteInstances.m = make(map[string]*Instance)
	}
	finiteInstances.m[key] = in
	return in
}

// FuzzEvaluateFinite pins the invariant the GA's ranking relies on:
// evaluation never produces NaN, a valid allocation has finite
// objectives and zero violation, and an invalid one has a positive
// violation. It spans both fabrics, comb sizes 4-16 and shared-core
// workloads; genomes come either from the raw fuzz bytes or from a
// seeded heuristic assignment, which reaches the feasible region.
func FuzzEvaluateFinite(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(4), int64(1), []byte{0xff})
	f.Add(uint8(1), uint8(1), uint8(8), int64(2), []byte{})
	f.Add(uint8(0), uint8(2), uint8(16), int64(3), []byte{0x5a, 0x01})
	f.Add(uint8(1), uint8(0), uint8(12), int64(-4), []byte{0x00, 0x80, 0x10})
	all := []Objective{ObjTime, ObjEnergy, ObjBER}
	f.Fuzz(func(t *testing.T, backend, workload, nw uint8, seed int64, genes []byte) {
		in := finiteInstance(t, int(backend%2), int(workload%3), 4+int(nw)%13)
		var g Genome
		if len(genes) > 0 {
			// Raw genes: bit i of the genome is bit i of the input,
			// cycled over its bytes.
			g = in.NewZeroGenome()
			bits := g.Bits()
			for i := range bits {
				bits[i] = genes[(i/8)%len(genes)] >> (i % 8) & 1
			}
		} else {
			rng := rand.New(rand.NewSource(seed))
			counts := make([]int, in.Edges())
			for i := range counts {
				counts[i] = 1 + rng.Intn(3)
			}
			var err error
			if g, err = Assign(in, counts, RandomFit, rng); err != nil {
				t.Skip("no heuristic assignment for these counts")
			}
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		var out Eval
		ev.EvaluateInto(&out, g)
		objs := make([]float64, len(all))
		out.ObjectivesInto(objs, all)
		for i, v := range append(objs, out.Violation, out.MakespanCycles, out.BitEnergyFJ, out.MeanBER, out.WorstBER) {
			if math.IsNaN(v) {
				t.Fatalf("value %d is NaN (valid=%v, objectives %v, violation %v)", i, out.Valid, objs, out.Violation)
			}
		}
		if !out.Valid {
			if !(out.Violation > 0) {
				t.Fatalf("invalid evaluation (%s) has violation %v, want > 0", out.Reason(), out.Violation)
			}
			return
		}
		if out.Violation != 0 {
			t.Fatalf("valid evaluation has violation %v, want 0", out.Violation)
		}
		for i, v := range objs {
			if math.IsInf(v, 0) {
				t.Fatalf("valid evaluation has objective %d = %v", i, v)
			}
		}
	})
}
