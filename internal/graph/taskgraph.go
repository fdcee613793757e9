// Package graph implements the application model of the paper: task
// graphs (Definition 1), the architecture characterization graph
// (Definition 2), and the task mapping — both the paper's one-to-one
// form (Definition 3) and the relaxed shared-core form where several
// tasks serialize on one core — together with builders for the
// paper's virtual application and a family of random DAG generators
// for wider experiments.
package graph

import (
	"fmt"
)

// Task is one vertex of a task graph. Execution time is expressed in
// clock cycles; the paper assumes homogeneous cores, so the time does
// not depend on the core the task is mapped to.
type Task struct {
	Name       string
	ExecCycles float64
}

// Edge is one directed communication d(i,j) of a task graph, weighted
// by the exchanged volume in bits.
type Edge struct {
	Name       string
	Src, Dst   int
	VolumeBits float64
}

// TaskGraph is a directed acyclic application graph (Definition 1).
type TaskGraph struct {
	Tasks []Task
	Edges []Edge
}

// NumTasks returns the number of vertices.
func (g *TaskGraph) NumTasks() int { return len(g.Tasks) }

// NumEdges returns Nl, the number of communications.
func (g *TaskGraph) NumEdges() int { return len(g.Edges) }

// Preds returns, for every task, the indices of its incoming edges.
func (g *TaskGraph) Preds() [][]int {
	in := make([][]int, len(g.Tasks))
	for i, e := range g.Edges {
		in[e.Dst] = append(in[e.Dst], i)
	}
	return in
}

// Succs returns, for every task, the indices of its outgoing edges.
func (g *TaskGraph) Succs() [][]int {
	out := make([][]int, len(g.Tasks))
	for i, e := range g.Edges {
		out[e.Src] = append(out[e.Src], i)
	}
	return out
}

// Validate checks the structural invariants: non-empty, edge endpoints
// in range, no self loops, positive execution times, non-negative
// volumes, no duplicate directed edges, and acyclicity.
func (g *TaskGraph) Validate() error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("graph: no tasks")
	}
	for i, t := range g.Tasks {
		if t.ExecCycles < 0 {
			return fmt.Errorf("graph: task %d (%s) has negative execution time", i, t.Name)
		}
	}
	seen := make(map[[2]int]bool, len(g.Edges))
	for i, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Tasks) || e.Dst < 0 || e.Dst >= len(g.Tasks) {
			return fmt.Errorf("graph: edge %d (%s) endpoints %d->%d out of range", i, e.Name, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("graph: edge %d (%s) is a self loop on task %d", i, e.Name, e.Src)
		}
		if e.VolumeBits < 0 {
			return fmt.Errorf("graph: edge %d (%s) has negative volume", i, e.Name)
		}
		k := [2]int{e.Src, e.Dst}
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge %d->%d", e.Src, e.Dst)
		}
		seen[k] = true
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological ordering of the tasks, or an error
// if the graph has a cycle (Kahn's algorithm).
func (g *TaskGraph) TopoOrder() ([]int, error) {
	indeg := make([]int, len(g.Tasks))
	for _, e := range g.Edges {
		if e.Dst >= 0 && e.Dst < len(indeg) {
			indeg[e.Dst]++
		}
	}
	succ := g.Succs()
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, ei := range succ[n] {
			d := g.Edges[ei].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d tasks ordered)", len(order), len(g.Tasks))
	}
	return order, nil
}

// CriticalPathCycles returns the longest chain of task execution times
// ignoring all communication: the floor the paper calls the "minimal
// execution time" (20 k-cc for the virtual application), reached when
// bandwidth makes transfers negligible.
func (g *TaskGraph) CriticalPathCycles() (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	preds := g.Preds()
	end := make([]float64, len(g.Tasks))
	var best float64
	for _, ti := range order {
		start := 0.0
		for _, ei := range preds[ti] {
			if e := end[g.Edges[ei].Src]; e > start {
				start = e
			}
		}
		end[ti] = start + g.Tasks[ti].ExecCycles
		if end[ti] > best {
			best = end[ti]
		}
	}
	return best, nil
}
