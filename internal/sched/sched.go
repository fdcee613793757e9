// Package sched implements the paper's analytic time model
// (Section III-C, Eqs. 10-12): given a task graph and the number of
// wavelengths reserved per communication, it computes task start/end
// times, communication activity windows, and the global execution time
// (makespan). Communication time is V(d_jk) / (NW_jk * B), where B is
// the per-wavelength data rate in bits per clock cycle.
//
// The windows drive two consumers: the chromosome validity rule (two
// time-overlapping communications sharing waveguide segments must use
// disjoint wavelengths) and the crosstalk model (only simultaneously
// propagating wavelengths interfere).
package sched

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Window is a half-open activity interval [Start, End) in clock
// cycles.
type Window struct {
	Start, End float64
}

// Duration returns the window length in cycles.
func (w Window) Duration() float64 { return w.End - w.Start }

// Overlaps reports whether two half-open windows intersect. Zero
// length windows (zero-volume transfers) never overlap anything.
func (w Window) Overlaps(o Window) bool {
	if w.Start >= w.End || o.Start >= o.End {
		return false
	}
	return w.Start < o.End && o.Start < w.End
}

// Schedule is the result of the analytic time model.
type Schedule struct {
	// TaskStart and TaskEnd are per-task times in cycles.
	TaskStart, TaskEnd []float64
	// Comm holds the per-edge activity windows: a communication
	// starts the instant its producer finishes (Eq. 12's earliest
	// availability) and occupies its wavelengths for V/(NW*B)
	// cycles.
	Comm []Window
	// MakespanCycles is the global execution time of Eq. 11.
	MakespanCycles float64
}

// Planner is the reusable form of the time model: it caches the
// graph's topological order and predecessor/successor lists once so
// the GA's evaluation loop can recompute schedules for millions of
// wavelength count vectors without re-deriving (or re-allocating)
// either.
//
// A planner built by NewPlannerMapped additionally knows the
// task-to-core mapping. For injective mappings (the paper's
// Definition 3) the mapping is inert and the schedule is bit-identical
// to the unmapped model; for shared-core mappings ComputeInto switches
// to the core-serialized list schedule (see computeSerialInto).
//
// A Planner is NOT safe for concurrent use: the shared-core path
// dispatches through planner-owned scratch. Give each worker
// goroutine its own (as alloc.Evaluator already does).
type Planner struct {
	g     *graph.TaskGraph
	order []int
	preds [][]int
	succs [][]int

	// m is nil for unmapped planners. shared marks a non-injective
	// mapping; selfEdge[e] marks edges whose endpoint tasks share a
	// core (zero-cost, zero optical resources).
	m        graph.Mapping
	nCores   int
	shared   bool
	selfEdge []bool

	// Serialized-dispatch scratch, reused across ComputeInto calls so
	// the shared-core path stays allocation-free in steady state.
	pend     []int
	ready    []float64
	coreFree []float64
	cand     []int
}

// NewPlanner validates the graph's acyclicity and caches its
// traversal structure. The resulting planner is mapping-agnostic: it
// computes the paper's unserialized time model.
func NewPlanner(g *graph.TaskGraph) (*Planner, error) {
	return newPlanner(g, nil, 0)
}

// NewPlannerMapped builds a mapping-aware planner. The mapping may
// place several tasks on one core: such tasks are serialized on that
// core's timeline, and edges between same-core tasks cost zero time
// and zero wavelengths. Injective mappings reproduce NewPlanner's
// schedules bit for bit.
func NewPlannerMapped(g *graph.TaskGraph, m graph.Mapping, nCores int) (*Planner, error) {
	if err := m.Validate(g, nCores); err != nil {
		return nil, err
	}
	return newPlanner(g, m, nCores)
}

func newPlanner(g *graph.TaskGraph, m graph.Mapping, nCores int) (*Planner, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &Planner{g: g, order: order, preds: g.Preds(), succs: g.Succs(), m: m, nCores: nCores}
	if m != nil {
		p.shared = !m.Injective()
		p.selfEdge = make([]bool, g.NumEdges())
		for ei, e := range g.Edges {
			p.selfEdge[ei] = m[e.Src] == m[e.Dst]
		}
	}
	return p, nil
}

// SelfEdge reports whether edge e connects two tasks mapped onto the
// same core (always false for unmapped planners). Self edges need no
// wavelengths and have zero-length activity windows.
func (p *Planner) SelfEdge(e int) bool {
	return p.selfEdge != nil && p.selfEdge[e]
}

// Shared reports whether the planner's mapping places several tasks
// on one core, i.e. whether ComputeInto core-serializes.
func (p *Planner) Shared() bool { return p.shared }

// ComputeInto evaluates the time model into s, reusing its slices
// when their capacity suffices — a steady-state caller performs zero
// heap allocations. lambdas[e] is the number of wavelengths reserved
// for edge e; every positive-volume edge needs at least one.
// bitsPerCycle is B; the paper-scale experiments use 1 bit per cycle
// per wavelength. On error s is left in an unspecified state.
func (p *Planner) ComputeInto(s *Schedule, lambdas []int, bitsPerCycle float64) error {
	g := p.g
	if len(lambdas) != g.NumEdges() {
		return fmt.Errorf("sched: %d lambda counts for %d edges", len(lambdas), g.NumEdges())
	}
	if bitsPerCycle <= 0 {
		return fmt.Errorf("sched: bits per cycle must be positive, got %v", bitsPerCycle)
	}
	for e, n := range lambdas {
		if n < 0 {
			return fmt.Errorf("sched: edge %d has negative wavelength count %d", e, n)
		}
		// Self edges on a shared core never touch the optical layer,
		// so they are exempt from the one-wavelength minimum.
		if n == 0 && g.Edges[e].VolumeBits > 0 && !p.SelfEdge(e) {
			return fmt.Errorf("sched: edge %d carries %v bits over zero wavelengths", e, g.Edges[e].VolumeBits)
		}
	}
	s.TaskStart = grow(s.TaskStart, g.NumTasks())
	s.TaskEnd = grow(s.TaskEnd, g.NumTasks())
	s.Comm = grow(s.Comm, g.NumEdges())
	s.MakespanCycles = 0
	if p.shared {
		p.computeSerialInto(s, lambdas, bitsPerCycle)
		return nil
	}
	for _, t := range p.order {
		start := 0.0
		for _, ei := range p.preds[t] {
			e := g.Edges[ei]
			// The producer's completion gates the transfer; the
			// transfer's completion gates the consumer (Eq. 12).
			cs := s.TaskEnd[e.Src]
			d := 0.0
			if e.VolumeBits > 0 {
				d = e.VolumeBits / (float64(lambdas[ei]) * bitsPerCycle)
			}
			s.Comm[ei] = Window{Start: cs, End: cs + d}
			if s.Comm[ei].End > start {
				start = s.Comm[ei].End
			}
		}
		s.TaskStart[t] = start
		s.TaskEnd[t] = start + g.Tasks[t].ExecCycles
		if s.TaskEnd[t] > s.MakespanCycles {
			s.MakespanCycles = s.TaskEnd[t]
		}
	}
	return nil
}

// computeSerialInto is the core-serialized list schedule used for
// shared-core mappings. Each task still becomes data-ready when its
// last incoming communication delivers (the unmapped model's rule),
// but a core executes at most one task at a time: among the tasks
// waiting on a core, the one with the earliest (ready time, task
// index) runs next. Communications start the instant their producer
// finishes, exactly as in the unmapped model; edges between same-core
// tasks cost zero cycles and zero wavelengths.
//
// The greedy global dispatch below — repeatedly committing the
// candidate with the smallest (start, ready, index) — is equivalent to
// per-core event-driven dispatch: a task's ready time always exceeds
// the start time of its last-finishing predecessor, so no
// later-discovered candidate can ever preempt an earlier commitment.
// For injective mappings the core constraint never binds and every
// start equals the unmapped model's value bit for bit (pinned by
// TestSerializedInjectiveBitIdentical).
func (p *Planner) computeSerialInto(s *Schedule, lambdas []int, bitsPerCycle float64) {
	g := p.g
	n := g.NumTasks()
	p.pend = grow(p.pend, n)
	p.ready = grow(p.ready, n)
	p.coreFree = grow(p.coreFree, p.nCores)
	if cap(p.cand) < n {
		p.cand = make([]int, 0, n)
	}
	p.cand = p.cand[:0]
	for t := 0; t < n; t++ {
		p.pend[t] = len(p.preds[t])
		p.ready[t] = 0
		if p.pend[t] == 0 {
			p.cand = append(p.cand, t)
		}
	}
	for c := range p.coreFree {
		p.coreFree[c] = 0
	}
	for scheduled := 0; scheduled < n; scheduled++ {
		// Commit the candidate with the earliest start; ties resolve
		// by ready time then task index, so the schedule is a pure
		// function of the inputs.
		best, bestPos := -1, -1
		var bestStart, bestReady float64
		for pos, t := range p.cand {
			start := p.ready[t]
			if f := p.coreFree[p.m[t]]; f > start {
				start = f
			}
			if best == -1 || start < bestStart ||
				(start == bestStart && (p.ready[t] < bestReady ||
					(p.ready[t] == bestReady && t < best))) {
				best, bestPos, bestStart, bestReady = t, pos, start, p.ready[t]
			}
		}
		s.TaskStart[best] = bestStart
		end := bestStart + g.Tasks[best].ExecCycles
		s.TaskEnd[best] = end
		if end > s.MakespanCycles {
			s.MakespanCycles = end
		}
		p.coreFree[p.m[best]] = end
		p.cand[bestPos] = p.cand[len(p.cand)-1]
		p.cand = p.cand[:len(p.cand)-1]
		for _, ei := range p.succs[best] {
			e := g.Edges[ei]
			d := 0.0
			if e.VolumeBits > 0 && !p.selfEdge[ei] {
				d = e.VolumeBits / (float64(lambdas[ei]) * bitsPerCycle)
			}
			s.Comm[ei] = Window{Start: end, End: end + d}
			if s.Comm[ei].End > p.ready[e.Dst] {
				p.ready[e.Dst] = s.Comm[ei].End
			}
			p.pend[e.Dst]--
			if p.pend[e.Dst] == 0 {
				p.cand = append(p.cand, e.Dst)
			}
		}
	}
}

// grow returns a length-n slice reusing s's storage when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Clone deep-copies the schedule, detaching it from any scratch
// storage it was computed into.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		TaskStart:      append([]float64(nil), s.TaskStart...),
		TaskEnd:        append([]float64(nil), s.TaskEnd...),
		Comm:           append([]Window(nil), s.Comm...),
		MakespanCycles: s.MakespanCycles,
	}
	return c
}

// ValidateCoreSerial cross-checks a core-serialized schedule: on top
// of Validate's invariants, no two tasks sharing a core may overlap
// in time. It exists for the simulator and the shared-core property
// tests.
func (s *Schedule) ValidateCoreSerial(g *graph.TaskGraph, m graph.Mapping) error {
	if err := s.Validate(g); err != nil {
		return err
	}
	if len(m) != g.NumTasks() {
		return fmt.Errorf("sched: mapping covers %d tasks, graph has %d", len(m), g.NumTasks())
	}
	const tol = 1e-6
	for i := 0; i < g.NumTasks(); i++ {
		for j := i + 1; j < g.NumTasks(); j++ {
			if m[i] != m[j] {
				continue
			}
			if s.TaskStart[i] < s.TaskEnd[j]-tol && s.TaskStart[j] < s.TaskEnd[i]-tol {
				return fmt.Errorf("sched: tasks %d [%v,%v) and %d [%v,%v) overlap on core %d",
					i, s.TaskStart[i], s.TaskEnd[i], j, s.TaskStart[j], s.TaskEnd[j], m[i])
			}
		}
	}
	return nil
}

// Validate cross-checks a schedule against its graph: windows start at
// producer completion, tasks start after every incoming window, and
// the makespan matches the latest task end. It exists for the
// simulator and property tests.
func (s *Schedule) Validate(g *graph.TaskGraph) error {
	if len(s.TaskEnd) != g.NumTasks() || len(s.Comm) != g.NumEdges() {
		return fmt.Errorf("sched: schedule shape mismatch")
	}
	const tol = 1e-6
	makespan := 0.0
	for t := range g.Tasks {
		if s.TaskEnd[t]-s.TaskStart[t]-g.Tasks[t].ExecCycles > tol ||
			g.Tasks[t].ExecCycles-(s.TaskEnd[t]-s.TaskStart[t]) > tol {
			return fmt.Errorf("sched: task %d duration mismatch", t)
		}
		makespan = math.Max(makespan, s.TaskEnd[t])
	}
	for ei, e := range g.Edges {
		if math.Abs(s.Comm[ei].Start-s.TaskEnd[e.Src]) > tol {
			return fmt.Errorf("sched: edge %d starts at %v, producer ends at %v", ei, s.Comm[ei].Start, s.TaskEnd[e.Src])
		}
		if s.Comm[ei].End-s.TaskStart[e.Dst] > tol {
			return fmt.Errorf("sched: edge %d ends after its consumer starts", ei)
		}
	}
	if math.Abs(makespan-s.MakespanCycles) > tol {
		return fmt.Errorf("sched: makespan %v, latest task end %v", s.MakespanCycles, makespan)
	}
	return nil
}
