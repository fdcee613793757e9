package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func ones(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = 1
	}
	return l
}

// compute evaluates the time model into a fresh schedule on a fresh
// planner: the single-shot reference the reusing Planner paths are
// compared against.
func compute(g *graph.TaskGraph, lambdas []int, bitsPerCycle float64) (*Schedule, error) {
	p, err := NewPlanner(g)
	if err != nil {
		return nil, err
	}
	s := &Schedule{}
	if err := p.ComputeInto(s, lambdas, bitsPerCycle); err != nil {
		return nil, err
	}
	return s, nil
}

func TestWindowOverlaps(t *testing.T) {
	cases := []struct {
		a, b Window
		want bool
	}{
		{Window{0, 10}, Window{5, 15}, true},
		{Window{0, 10}, Window{10, 20}, false}, // half-open: touching is disjoint
		{Window{10, 20}, Window{0, 10}, false},
		{Window{0, 10}, Window{2, 3}, true},
		{Window{5, 5}, Window{0, 10}, false}, // zero-length never overlaps
		{Window{0, 10}, Window{5, 5}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap must be symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestPaperAppAllOnesMakespan(t *testing.T) {
	// With one wavelength per communication and B = 1 bit/cycle the
	// reconstructed application runs in 36 k-cc: T1(5k) c1(8k) T2(5k)
	// c2(4k) T4(5k) c5(4k) T5(5k).
	g := graph.PaperApp()
	s, err := compute(g, ones(g.NumEdges()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.MakespanCycles != 36000 {
		t.Errorf("makespan = %v, want 36000", s.MakespanCycles)
	}
	if err := s.Validate(g); err != nil {
		t.Errorf("schedule self-check: %v", err)
	}
}

func TestPaperAppGenerousAllocationApproachesFloor(t *testing.T) {
	g := graph.PaperApp()
	huge := make([]int, g.NumEdges())
	for i := range huge {
		huge[i] = 1000
	}
	s, err := compute(g, huge, 1)
	if err != nil {
		t.Fatal(err)
	}
	floor, _ := g.CriticalPathCycles()
	if floor != 20000 {
		t.Fatalf("floor = %v, want 20000", floor)
	}
	if s.MakespanCycles < floor {
		t.Errorf("makespan %v below the infinite-bandwidth floor %v", s.MakespanCycles, floor)
	}
	if s.MakespanCycles > floor+100 {
		t.Errorf("makespan %v should be within 0.1 k-cc of the floor with 1000 wavelengths", s.MakespanCycles)
	}
}

func TestCommWindows(t *testing.T) {
	g := graph.PaperApp()
	s, err := compute(g, ones(g.NumEdges()), 1)
	if err != nil {
		t.Fatal(err)
	}
	// c1: T1 -> T2, 8 kb on one wavelength: starts when T1 ends (5k),
	// runs 8k cycles.
	c1 := s.Comm[1]
	if c1.Start != 5000 || c1.End != 13000 {
		t.Errorf("c1 window = %+v, want [5000,13000)", c1)
	}
	// T2 starts when c1 delivers.
	if s.TaskStart[2] != 13000 {
		t.Errorf("T2 start = %v, want 13000", s.TaskStart[2])
	}
}

func TestMoreWavelengthsShortenWindows(t *testing.T) {
	g := graph.PaperApp()
	l := ones(g.NumEdges())
	s1, _ := compute(g, l, 1)
	l[1] = 4
	s4, _ := compute(g, l, 1)
	if got, want := s4.Comm[1].Duration(), 2000.0; got != want {
		t.Errorf("c1 duration at 4 wavelengths = %v, want %v", got, want)
	}
	if s4.MakespanCycles >= s1.MakespanCycles {
		t.Errorf("makespan must drop when the critical edge gets bandwidth: %v -> %v",
			s1.MakespanCycles, s4.MakespanCycles)
	}
}

func TestBitsPerCycleScalesDurations(t *testing.T) {
	g := graph.PaperApp()
	s1, _ := compute(g, ones(g.NumEdges()), 1)
	s2, _ := compute(g, ones(g.NumEdges()), 2)
	for ei := range g.Edges {
		if d1, d2 := s1.Comm[ei].Duration(), s2.Comm[ei].Duration(); d1 != 2*d2 {
			t.Errorf("edge %d: doubling B must halve duration (%v vs %v)", ei, d1, d2)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	g := graph.PaperApp()
	if _, err := compute(g, ones(3), 1); err == nil {
		t.Error("wrong lambda count must fail")
	}
	if _, err := compute(g, ones(g.NumEdges()), 0); err == nil {
		t.Error("zero bandwidth must fail")
	}
	l := ones(g.NumEdges())
	l[2] = 0
	if _, err := compute(g, l, 1); err == nil {
		t.Error("zero wavelengths on a loaded edge must fail")
	}
	l[2] = -1
	if _, err := compute(g, l, 1); err == nil {
		t.Error("negative wavelengths must fail")
	}
}

func TestZeroVolumeEdgeNeedsNoWavelength(t *testing.T) {
	g := &graph.TaskGraph{
		Tasks: []graph.Task{{Name: "a", ExecCycles: 10}, {Name: "b", ExecCycles: 10}},
		Edges: []graph.Edge{{Name: "sync", Src: 0, Dst: 1, VolumeBits: 0}},
	}
	s, err := compute(g, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Comm[0].Duration() != 0 {
		t.Errorf("zero-volume window = %+v, want zero length", s.Comm[0])
	}
	if s.MakespanCycles != 20 {
		t.Errorf("makespan = %v, want 20", s.MakespanCycles)
	}
}

func TestMakespanMonotoneInWavelengths(t *testing.T) {
	// Property: adding wavelengths to any edge never increases the
	// makespan (time model is monotone).
	g := graph.PaperApp()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]int, g.NumEdges())
		for i := range base {
			base[i] = 1 + rng.Intn(8)
		}
		s0, err := compute(g, base, 1)
		if err != nil {
			return false
		}
		grown := make([]int, len(base))
		copy(grown, base)
		grown[rng.Intn(len(grown))] += 1 + rng.Intn(4)
		s1, err := compute(g, grown, 1)
		if err != nil {
			return false
		}
		return s1.MakespanCycles <= s0.MakespanCycles+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScheduleValidateProperty(t *testing.T) {
	// Every computed schedule passes its own consistency check, for
	// random graphs and random allocations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Layered(rng, 3, 3, 0.4, graph.DefaultGenConfig())
		if err != nil {
			return false
		}
		l := make([]int, g.NumEdges())
		for i := range l {
			l[i] = 1 + rng.Intn(6)
		}
		s, err := compute(g, l, 1)
		if err != nil {
			return false
		}
		return s.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSlack(t *testing.T) {
	g := graph.PaperApp()
	s, _ := compute(g, ones(g.NumEdges()), 1)
	// An edge's slack is how many cycles its window could grow before
	// delaying the start of its consumer task.
	slack := make([]float64, g.NumEdges())
	for ei, e := range g.Edges {
		slack[ei] = s.TaskStart[e.Dst] - s.Comm[ei].End
	}
	// c1 feeds T2 directly and is the only input: zero slack.
	if slack[1] != 0 {
		t.Errorf("c1 slack = %v, want 0", slack[1])
	}
	// c0 (T0 -> T5, 6 kb) finishes at 11k while T5 starts at 31k.
	if slack[0] != 20000 {
		t.Errorf("c0 slack = %v, want 20000", slack[0])
	}
	for ei, sl := range slack {
		if sl < 0 {
			t.Errorf("edge %d negative slack %v", ei, sl)
		}
	}
}

func TestValidateCatchesCorruptedSchedules(t *testing.T) {
	g := graph.PaperApp()
	fresh := func() *Schedule {
		s, err := compute(g, ones(g.NumEdges()), 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"wrong shape", func(s *Schedule) { s.Comm = s.Comm[:2] }},
		{"task duration", func(s *Schedule) { s.TaskEnd[2] += 100 }},
		{"comm start", func(s *Schedule) { s.Comm[1].Start += 50 }},
		{"comm past consumer", func(s *Schedule) { s.Comm[1].End = s.TaskStart[2] + 1 }},
		{"makespan", func(s *Schedule) { s.MakespanCycles += 1 }},
	}
	for _, c := range cases {
		s := fresh()
		c.mut(s)
		if err := s.Validate(g); err == nil {
			t.Errorf("%s: corrupted schedule passed validation", c.name)
		}
	}
	if err := fresh().Validate(g); err != nil {
		t.Fatalf("pristine schedule failed validation: %v", err)
	}
}

func TestPlannerMatchesCompute(t *testing.T) {
	g := graph.PaperApp()
	pl, err := NewPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	var scratch Schedule
	for _, lambdas := range [][]int{
		ones(g.NumEdges()),
		{1, 4, 2, 3, 2, 3},
		{8, 8, 8, 8, 8, 8},
	} {
		want, err := compute(g, lambdas, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.ComputeInto(&scratch, lambdas, 1); err != nil {
			t.Fatal(err)
		}
		if scratch.MakespanCycles != want.MakespanCycles {
			t.Errorf("lambdas %v: makespan %v, want %v", lambdas, scratch.MakespanCycles, want.MakespanCycles)
		}
		for i := range want.Comm {
			if scratch.Comm[i] != want.Comm[i] {
				t.Errorf("lambdas %v: window %d = %+v, want %+v", lambdas, i, scratch.Comm[i], want.Comm[i])
			}
		}
		if err := scratch.Validate(g); err != nil {
			t.Errorf("lambdas %v: %v", lambdas, err)
		}
	}
}

func TestPlannerComputeIntoReusesStorage(t *testing.T) {
	g := graph.PaperApp()
	pl, err := NewPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	var s Schedule
	lambdas := []int{1, 4, 2, 3, 2, 3}
	if err := pl.ComputeInto(&s, lambdas, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := pl.ComputeInto(&s, lambdas, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ComputeInto allocates %v objects per run, want 0", allocs)
	}
}

func TestPlannerComputeIntoRejectsBadInput(t *testing.T) {
	g := graph.PaperApp()
	pl, err := NewPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	var s Schedule
	if err := pl.ComputeInto(&s, []int{1}, 1); err == nil {
		t.Error("short lambda vector must be rejected")
	}
	if err := pl.ComputeInto(&s, ones(g.NumEdges()), 0); err == nil {
		t.Error("zero bits per cycle must be rejected")
	}
	bad := ones(g.NumEdges())
	bad[0] = -1
	if err := pl.ComputeInto(&s, bad, 1); err == nil {
		t.Error("negative count must be rejected")
	}
	bad[0] = 0
	if err := pl.ComputeInto(&s, bad, 1); err == nil {
		t.Error("zero wavelengths on a loaded edge must be rejected")
	}
}

// sharedTestGraph is a 4-task, 2-core workload exercising every
// shared-core rule: a zero-cost self edge, core waits, and serialized
// same-core execution.
func sharedTestGraph() (*graph.TaskGraph, graph.Mapping) {
	g := &graph.TaskGraph{
		Tasks: []graph.Task{
			{Name: "T0", ExecCycles: 10},
			{Name: "T1", ExecCycles: 10},
			{Name: "T2", ExecCycles: 10},
			{Name: "T3", ExecCycles: 10},
		},
		Edges: []graph.Edge{
			{Name: "c0", Src: 0, Dst: 1, VolumeBits: 10},
			{Name: "c1", Src: 0, Dst: 2, VolumeBits: 10}, // self edge on core 0
			{Name: "c2", Src: 1, Dst: 3, VolumeBits: 10}, // self edge on core 1
			{Name: "c3", Src: 2, Dst: 3, VolumeBits: 10},
		},
	}
	return g, graph.Mapping{0, 1, 0, 1}
}

func TestSerializedSharedCoreSchedule(t *testing.T) {
	g, m := sharedTestGraph()
	p, err := NewPlannerMapped(g, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Shared() {
		t.Fatal("mapping shares core 0; planner must serialize")
	}
	if !p.SelfEdge(1) || !p.SelfEdge(2) || p.SelfEdge(0) || p.SelfEdge(3) {
		t.Fatal("self-edge detection wrong")
	}
	var s Schedule
	if err := p.ComputeInto(&s, []int{1, 0, 0, 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Hand-computed: T0 [0,10); the self edge c1 is free so T2 runs
	// [10,20) on core 0; c0 delivers at 20 so T1 runs [20,30) on core
	// 1; c3 [20,30) and the free self edge c2 gate T3, which waits for
	// core 1 until 30: [30,40).
	wantStart := []float64{0, 20, 10, 30}
	wantEnd := []float64{10, 30, 20, 40}
	for tsk := range wantStart {
		if s.TaskStart[tsk] != wantStart[tsk] || s.TaskEnd[tsk] != wantEnd[tsk] {
			t.Errorf("task %d window [%v,%v), want [%v,%v)",
				tsk, s.TaskStart[tsk], s.TaskEnd[tsk], wantStart[tsk], wantEnd[tsk])
		}
	}
	if s.MakespanCycles != 40 {
		t.Errorf("makespan = %v, want 40", s.MakespanCycles)
	}
	if s.Comm[1].Duration() != 0 || s.Comm[2].Duration() != 0 {
		t.Errorf("self edges must have zero duration: %+v, %+v", s.Comm[1], s.Comm[2])
	}
	if err := s.ValidateCoreSerial(g, m); err != nil {
		t.Errorf("core-serial self-check: %v", err)
	}
	// A loaded non-self edge still needs a wavelength.
	if err := p.ComputeInto(&s, []int{0, 0, 1, 1}, 1); err == nil {
		t.Error("zero wavelengths on a loaded cross-core edge must fail")
	}
}

func TestSerializedIndependentTasksRunInIndexOrder(t *testing.T) {
	g := &graph.TaskGraph{
		Tasks: []graph.Task{{Name: "a", ExecCycles: 5}, {Name: "b", ExecCycles: 7}},
	}
	p, err := NewPlannerMapped(g, graph.Mapping{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var s Schedule
	if err := p.ComputeInto(&s, nil, 1); err != nil {
		t.Fatal(err)
	}
	if s.TaskStart[0] != 0 || s.TaskStart[1] != 5 || s.MakespanCycles != 12 {
		t.Errorf("equal-ready tasks must serialize by index: starts %v/%v, makespan %v",
			s.TaskStart[0], s.TaskStart[1], s.MakespanCycles)
	}
}

// TestSerializedInjectiveBitIdentical pins the compatibility
// guarantee: forcing the core-serialized dispatcher on an injective
// mapping reproduces the pre-change topological model bit for bit, so
// every reproduction number computed before this change stands.
func TestSerializedInjectiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g, err := graph.Layered(rng, 3, 4, 0.5, graph.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		m, err := graph.RandomMapping(rng, g, 16)
		if err != nil {
			t.Fatal(err)
		}
		lambdas := make([]int, g.NumEdges())
		for i := range lambdas {
			lambdas[i] = 1 + rng.Intn(6)
		}
		want, err := compute(g, lambdas, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlannerMapped(g, m, 16)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shared() {
			t.Fatal("random injective mapping misclassified as shared")
		}
		// Force the serialized dispatcher the way a shared mapping
		// would take it.
		got := &Schedule{
			TaskStart: make([]float64, g.NumTasks()),
			TaskEnd:   make([]float64, g.NumTasks()),
			Comm:      make([]Window, g.NumEdges()),
		}
		p.shared = true
		p.computeSerialInto(got, lambdas, 1)
		for tsk := range want.TaskStart {
			if math.Float64bits(got.TaskStart[tsk]) != math.Float64bits(want.TaskStart[tsk]) ||
				math.Float64bits(got.TaskEnd[tsk]) != math.Float64bits(want.TaskEnd[tsk]) {
				t.Fatalf("trial %d task %d: serialized [%v,%v) vs model [%v,%v) not bit-identical",
					trial, tsk, got.TaskStart[tsk], got.TaskEnd[tsk], want.TaskStart[tsk], want.TaskEnd[tsk])
			}
		}
		for ei := range want.Comm {
			if math.Float64bits(got.Comm[ei].Start) != math.Float64bits(want.Comm[ei].Start) ||
				math.Float64bits(got.Comm[ei].End) != math.Float64bits(want.Comm[ei].End) {
				t.Fatalf("trial %d edge %d: windows differ", trial, ei)
			}
		}
		if math.Float64bits(got.MakespanCycles) != math.Float64bits(want.MakespanCycles) {
			t.Fatalf("trial %d: makespans differ: %v vs %v", trial, got.MakespanCycles, want.MakespanCycles)
		}
	}
}

func TestSerializedScheduleProperty(t *testing.T) {
	// Every core-serialized schedule on a random shared mapping passes
	// the full consistency check including core exclusivity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Layered(rng, 4, 5, 0.4, graph.DefaultGenConfig())
		if err != nil {
			return false
		}
		m, err := graph.SharedRandomMapping(rng, g, 4)
		if err != nil {
			return false
		}
		p, err := NewPlannerMapped(g, m, 4)
		if err != nil {
			return false
		}
		l := make([]int, g.NumEdges())
		for i := range l {
			l[i] = 1 + rng.Intn(6)
		}
		var s Schedule
		if err := p.ComputeInto(&s, l, 1); err != nil {
			return false
		}
		return s.ValidateCoreSerial(g, m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSerializedComputeIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := graph.Chain(rng, 40, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.SharedRandomMapping(rng, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlannerMapped(g, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := make([]int, g.NumEdges())
	for i := range lambdas {
		lambdas[i] = 1 + i%3
	}
	var s Schedule
	if err := p.ComputeInto(&s, lambdas, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.ComputeInto(&s, lambdas, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state shared-core ComputeInto allocates %v objects per run, want 0", allocs)
	}
}

func TestScheduleClone(t *testing.T) {
	g := graph.PaperApp()
	s, err := compute(g, ones(g.NumEdges()), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.TaskEnd[0] += 1
	c.Comm[0].End += 1
	if s.TaskEnd[0] == c.TaskEnd[0] || s.Comm[0].End == c.Comm[0].End {
		t.Error("clone shares storage with the original")
	}
	if c.MakespanCycles != s.MakespanCycles {
		t.Error("clone lost the makespan")
	}
}
