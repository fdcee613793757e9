package pareto

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{1, 5, 3}, []float64{1, 5, 4}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestDominanceIsStrictPartialOrder(t *testing.T) {
	// Irreflexive and asymmetric, for random points.
	f := func(a, b [3]float64) bool {
		as, bs := a[:], b[:]
		if Dominates(as, as) {
			return false
		}
		if Dominates(as, bs) && Dominates(bs, as) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// frontIndices is the quadratic reference front: the indices of the
// points no other point dominates, in their original order.
func frontIndices(points [][]float64) []int {
	var front []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

func TestFrontIndicesSmall(t *testing.T) {
	points := [][]float64{
		{1, 5},   // front
		{2, 4},   // front
		{3, 3},   // front
		{3, 5},   // dominated by {1,5}? no: equal y, worse x -> dominated
		{4, 4},   // dominated by {2,4} and {3,3}
		{0.5, 6}, // front
	}
	got := FrontIndices2D(points)
	want := []int{0, 1, 2, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("front = %v, want %v", got, want)
	}
}

func TestFrontKeepsDuplicates(t *testing.T) {
	points := [][]float64{{1, 1}, {1, 1}, {2, 2}}
	got := FrontIndices2D(points)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("front = %v, want both duplicates", got)
	}
}

// TestFrontTiesIndependentOfInputOrder pins that duplicate and
// tied points cannot leak the sort's tie order into the front: the
// front of a permuted input is the permuted front, in index order.
func TestFrontTiesIndependentOfInputOrder(t *testing.T) {
	points := [][]float64{{2, 1}, {1, 3}, {2, 1}, {1, 3}, {1, 2}, {3, 0}, {1, 2}}
	if got, want := FrontIndices2D(points), []int{0, 2, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		}
		perm := rng.Perm(n)
		permuted := make([][]float64, n)
		for i, j := range perm {
			permuted[i] = points[j]
		}
		var mapped []int
		for _, i := range FrontIndices2D(permuted) {
			mapped = append(mapped, perm[i])
		}
		sort.Ints(mapped)
		if want := FrontIndices2D(points); !reflect.DeepEqual(mapped, want) {
			t.Fatalf("trial %d: permuted front %v, want %v for %v", trial, mapped, want, points)
		}
	}
}

func TestFront2DMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		points := make([][]float64, n)
		for i := range points {
			// Coarse coordinates force plenty of ties.
			points[i] = []float64{float64(rng.Intn(10)), float64(rng.Intn(10))}
		}
		slow := frontIndices(points)
		fast := FrontIndices2D(points)
		sort.Ints(slow)
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("trial %d: general %v vs 2D %v for %v", trial, slow, fast, points)
		}
	}
}

func TestFront2DPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on 3D input")
		}
	}()
	FrontIndices2D([][]float64{{1, 2, 3}})
}

func TestHypervolume2D(t *testing.T) {
	// Single point {1,1} against ref {3,3}: box 2x2.
	hv := Hypervolume2D([][]float64{{1, 1}}, [2]float64{3, 3})
	if hv != 4 {
		t.Errorf("hv = %v, want 4", hv)
	}
	// Staircase front.
	hv = Hypervolume2D([][]float64{{1, 2}, {2, 1}}, [2]float64{3, 3})
	// (3-1)*(3-2) + (3-2)*(2-1) = 2 + 1 = 3.
	if hv != 3 {
		t.Errorf("staircase hv = %v, want 3", hv)
	}
	// Dominated points do not add volume.
	hv2 := Hypervolume2D([][]float64{{1, 2}, {2, 1}, {2.5, 2.5}}, [2]float64{3, 3})
	if hv2 != hv {
		t.Errorf("dominated point changed hv: %v vs %v", hv2, hv)
	}
	// Points outside the reference box contribute nothing.
	hv3 := Hypervolume2D([][]float64{{1, 2}, {2, 1}, {5, 0.5}}, [2]float64{3, 3})
	if hv3 != hv {
		t.Errorf("outside point changed hv: %v vs %v", hv3, hv)
	}
}

func TestHypervolumeMonotoneUnderImprovement(t *testing.T) {
	// Improving any front point can only grow the hypervolume.
	base := [][]float64{{2, 2}, {1, 3}}
	better := [][]float64{{2, 1.5}, {1, 3}}
	ref := [2]float64{4, 4}
	if Hypervolume2D(better, ref) <= Hypervolume2D(base, ref) {
		t.Error("hypervolume must grow when a point improves")
	}
}

func TestFrontOfEmptyAndSingle(t *testing.T) {
	if got := FrontIndices2D(nil); len(got) != 0 {
		t.Errorf("front of empty = %v", got)
	}
	if got := FrontIndices2D([][]float64{{1, 2}}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("front of single = %v", got)
	}
}
