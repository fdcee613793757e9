// Package pareto provides multi-objective dominance utilities used by
// the NSGA-II engine and by the post-hoc analyses that regenerate the
// paper's figures: dominance tests, 2D front extraction and a 2D
// hypervolume indicator for ablation studies.
// All objectives are minimized, matching the paper's formulation
// (execution time, bit energy, BER).
package pareto

import (
	"cmp"
	"fmt"
	"slices"
)

// Dominates reports whether point a Pareto-dominates point b under
// minimization: a is no worse in every objective and strictly better
// in at least one. Points must have equal dimension.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strictly := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			strictly = true
		}
	}
	return strictly
}

// FrontIndices2D returns the indices of the non-dominated 2D points,
// in ascending order, in O(n log n): sort by the first objective,
// sweep keeping the running minimum of the second. Duplicate
// objective vectors are all kept (they dominate nothing and are
// dominated by nothing among themselves), matching how the paper
// counts "solutions on the Pareto front" from distinct genomes; the
// sweep makes the 100k-solution archives of Table II cheap to reduce.
func FrontIndices2D(points [][]float64) []int {
	type rec struct {
		x, y float64
		idx  int
	}
	rs := make([]rec, len(points))
	for i, p := range points {
		if len(p) != 2 {
			panic("pareto: FrontIndices2D needs 2D points")
		}
		rs[i] = rec{p[0], p[1], i}
	}
	// Ties in (x, y) may land in any order: the front is re-sorted by
	// index below, so the order cannot leak into the result.
	slices.SortFunc(rs, func(a, b rec) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		return cmp.Compare(a.y, b.y)
	})
	var front []int
	bestY := 0.0
	for i := 0; i < len(rs); {
		// Group points sharing the same x; the group's candidates are
		// those matching its minimal y. They survive iff that y
		// strictly improves on the best y of any smaller-x group
		// (equal y at smaller x dominates via the x objective).
		j := i
		minY := rs[i].y
		for j < len(rs) && rs[j].x == rs[i].x {
			if rs[j].y < minY {
				minY = rs[j].y
			}
			j++
		}
		if len(front) == 0 || minY < bestY {
			for k := i; k < j; k++ {
				if rs[k].y == minY {
					front = append(front, rs[k].idx)
				}
			}
			bestY = minY
		}
		i = j
	}
	slices.Sort(front)
	return front
}

// Hypervolume2D computes the dominated hypervolume of a 2D
// minimization front with respect to a reference point that must be
// dominated by every front point. Larger is better; the indicator is
// used by the GA ablation benches to compare configurations.
func Hypervolume2D(points [][]float64, ref [2]float64) float64 {
	front := FrontIndices2D(points)
	type xy struct{ x, y float64 }
	fs := make([]xy, 0, len(front))
	for _, i := range front {
		p := points[i]
		if p[0] > ref[0] || p[1] > ref[1] {
			continue // outside the reference box contributes nothing
		}
		fs = append(fs, xy{p[0], p[1]})
	}
	slices.SortFunc(fs, func(a, b xy) int { return cmp.Compare(a.x, b.x) })
	var hv float64
	prevY := ref[1]
	for _, p := range fs {
		if p.y < prevY {
			hv += (ref[0] - p.x) * (prevY - p.y)
			prevY = p.y
		}
	}
	return hv
}
