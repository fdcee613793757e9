package nsga2

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dupHeavyPopulation builds a population where ~85% of individuals
// duplicate one of ~n/8 archetype vectors — the shape real GA merges
// take.
func dupHeavyPopulation(rng *rand.Rand, n, m int) []Individual {
	archetypes := randomPopulation(rng, 2+n/8, m)
	pop := make([]Individual, n)
	for i := range pop {
		if rng.Intn(8) == 0 {
			pop[i] = randomPopulation(rng, 1, m)[0]
		} else {
			src := archetypes[rng.Intn(len(archetypes))]
			pop[i] = Individual{
				Objs:      append([]float64(nil), src.Objs...),
				Violation: src.Violation,
			}
		}
	}
	return pop
}

// TestFrontBuildersAgreeDupHeavy runs the engine's sort-based builder
// and the allocating reference over the SoA layout on duplicate-heavy
// populations at m in {2,3,4,5}: fronts, member order, ranks and
// crowding must agree bit for bit.
func TestFrontBuildersAgreeDupHeavy(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(70)
			pop := dupHeavyPopulation(rng, n, m)
			ref := make([]Individual, n)
			copy(ref, pop)
			refFronts := fastNonDominatedSort(ref)
			for rank, front := range refFronts {
				for _, i := range front {
					ref[i].Rank = rank
				}
				assignCrowding(ref, front)
			}
			e := scratchEngine((n+1)/2+1, m)
			gotFronts := e.rankAndCrowd(pop)
			if len(gotFronts) != len(refFronts) {
				return false
			}
			for fi := range refFronts {
				if len(gotFronts[fi]) != len(refFronts[fi]) {
					return false
				}
				for k := range refFronts[fi] {
					if gotFronts[fi][k] != refFronts[fi][k] {
						return false
					}
				}
			}
			for i := range ref {
				if pop[i].Rank != ref[i].Rank ||
					math.Float64bits(pop[i].Crowding) != math.Float64bits(ref[i].Crowding) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// fuzzObjective maps one fuzz byte onto the objective domain that
// stresses dominance: small tied integers plus the IEEE specials the
// engine admits (±Inf, -0; never NaN).
func fuzzObjective(b byte) float64 {
	switch b % 15 {
	case 14:
		return math.Inf(1)
	case 13:
		return math.Inf(-1)
	case 12:
		return math.Copysign(0, -1)
	default:
		return float64(b % 6)
	}
}

// fuzzViolation maps one fuzz byte onto the violation domain: mostly
// feasible, with graded and infinite violations mixed in.
func fuzzViolation(b byte) float64 {
	switch b % 7 {
	case 4:
		return 1
	case 5:
		return 2.5
	case 6:
		return math.Inf(1)
	default:
		return 0
	}
}

// FuzzFrontBuilders decodes arbitrary bytes into a population (one
// byte per objective plus a violation byte per individual, spanning
// ties, duplicates, +/-Inf and -0) and cross-checks the engine's
// sort-based front builder against the allocating reference.
func FuzzFrontBuilders(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 1, 1, 4}, uint8(0))
	f.Add([]byte{13, 3, 0, 14, 14, 4, 13, 12, 0, 1, 1, 6}, uint8(1))
	dup := make([]byte, 0, 120)
	for i := 0; i < 30; i++ { // ~85% duplicates of three archetypes
		a := byte(i % 3)
		dup = append(dup, a, a+1, 5-a, byte(i%5))
	}
	f.Add(dup, uint8(1))
	f.Add([]byte{14, 14, 14, 14, 4, 14, 14, 14, 14, 5, 0, 0, 0, 0, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint8) {
		m := 2 + int(mRaw%4)
		stride := m + 1
		n := len(data) / stride
		if n < 2 {
			return
		}
		if n > 96 {
			n = 96
		}
		pop := make([]Individual, n)
		for i := range pop {
			row := data[i*stride : (i+1)*stride]
			objs := make([]float64, m)
			for k := range objs {
				objs[k] = fuzzObjective(row[k])
			}
			pop[i] = Individual{Objs: objs, Violation: fuzzViolation(row[m])}
		}

		ref := make([]Individual, n)
		copy(ref, pop)
		refFronts := fastNonDominatedSort(ref)
		for rank, front := range refFronts {
			for _, i := range front {
				ref[i].Rank = rank
			}
			assignCrowding(ref, front)
		}
		e := scratchEngine((n+1)/2+1, m)
		gotFronts := e.rankAndCrowd(pop)
		if len(gotFronts) != len(refFronts) {
			t.Fatalf("%d fronts, reference has %d", len(gotFronts), len(refFronts))
		}
		for fi := range refFronts {
			if len(gotFronts[fi]) != len(refFronts[fi]) {
				t.Fatalf("front %d: %d members, reference has %d", fi, len(gotFronts[fi]), len(refFronts[fi]))
			}
			for k := range refFronts[fi] {
				if gotFronts[fi][k] != refFronts[fi][k] {
					t.Fatalf("front %d member %d: %d, reference %d", fi, k, gotFronts[fi][k], refFronts[fi][k])
				}
			}
		}
		for i := range ref {
			if pop[i].Rank != ref[i].Rank {
				t.Fatalf("rank[%d]=%d, reference %d", i, pop[i].Rank, ref[i].Rank)
			}
			if math.Float64bits(pop[i].Crowding) != math.Float64bits(ref[i].Crowding) {
				t.Fatalf("crowding[%d]=%v, reference %v", i, pop[i].Crowding, ref[i].Crowding)
			}
		}
	})
}
