package nsga2

import (
	"math"
	"sort"
)

// This file holds the allocating reference implementation of NSGA-II
// ranking: Deb constraint dominance, the classic fast non-dominated
// sort, crowding distance and elitist survival, written for clarity
// rather than speed. The property tests and benchmarks hold the
// engine's ranker against it bit for bit; production code never
// calls it.

// dominates implements Deb's constraint dominance for minimization:
// a feasible individual dominates any infeasible one; between two
// infeasible individuals the smaller violation dominates; between two
// feasible individuals, standard Pareto dominance.
func dominates(a, b Individual) bool {
	if a.Feasible() != b.Feasible() {
		return a.Feasible()
	}
	if !a.Feasible() {
		return a.Violation < b.Violation
	}
	strictly := false
	for i := range a.Objs {
		switch {
		case a.Objs[i] > b.Objs[i]:
			return false
		case a.Objs[i] < b.Objs[i]:
			strictly = true
		}
	}
	return strictly
}

// sortPopulation assigns ranks and crowding distances in place — the
// reference implementation of the engine's rankAndCrowd scratch pass.
func sortPopulation(pop []Individual) {
	fronts := fastNonDominatedSort(pop)
	for rank, front := range fronts {
		for _, i := range front {
			pop[i].Rank = rank
		}
		assignCrowding(pop, front)
	}
}

// fastNonDominatedSort returns the indices of each front (reference
// implementation; the Engine carries an allocation-free scratch
// version producing identical fronts).
func fastNonDominatedSort(pop []Individual) [][]int {
	n := len(pop)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominates(pop[i], pop[j]) {
				dominated[i] = append(dominated[i], j)
			} else if dominates(pop[j], pop[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]int
	cur := first
	for len(cur) > 0 {
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		cur = next
	}
	return fronts
}

// assignCrowding computes crowding distances for one front (reference
// implementation).
func assignCrowding(pop []Individual, front []int) {
	if len(front) == 0 {
		return
	}
	for _, i := range front {
		pop[i].Crowding = 0
	}
	if len(front) <= 2 {
		for _, i := range front {
			pop[i].Crowding = math.Inf(1)
		}
		return
	}
	m := len(pop[front[0]].Objs)
	idx := make([]int, len(front))
	for obj := 0; obj < m; obj++ {
		copy(idx, front)
		sort.SliceStable(idx, func(a, b int) bool {
			return pop[idx[a]].Objs[obj] < pop[idx[b]].Objs[obj]
		})
		lo, hi := pop[idx[0]].Objs[obj], pop[idx[len(idx)-1]].Objs[obj]
		spread := hi - lo
		pop[idx[0]].Crowding = math.Inf(1)
		pop[idx[len(idx)-1]].Crowding = math.Inf(1)
		if spread <= 0 || math.IsInf(spread, 0) || math.IsNaN(spread) {
			// Degenerate axis (all equal, or infeasible front at
			// +Inf): contributes nothing.
			continue
		}
		for k := 1; k < len(idx)-1; k++ {
			d := (pop[idx[k+1]].Objs[obj] - pop[idx[k-1]].Objs[obj]) / spread
			if !math.IsInf(pop[idx[k]].Crowding, 1) {
				pop[idx[k]].Crowding += d
			}
		}
	}
}

// survive performs the elitist (mu + lambda) environmental selection:
// whole fronts are taken while they fit; the last partial front is
// truncated by crowding distance (reference implementation).
func survive(merged []Individual, size int) []Individual {
	fronts := fastNonDominatedSort(merged)
	for rank, front := range fronts {
		for _, i := range front {
			merged[i].Rank = rank
		}
		assignCrowding(merged, front)
	}
	next := make([]Individual, 0, size)
	for _, front := range fronts {
		if len(next)+len(front) <= size {
			for _, i := range front {
				next = append(next, merged[i])
			}
			continue
		}
		rest := make([]int, len(front))
		copy(rest, front)
		sort.SliceStable(rest, func(a, b int) bool {
			return merged[rest[a]].Crowding > merged[rest[b]].Crowding
		})
		for _, i := range rest[:size-len(next)] {
			next = append(next, merged[i])
		}
		break
	}
	return next
}
