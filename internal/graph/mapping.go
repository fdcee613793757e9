package graph

import "fmt"

// Mapping assigns each task to a core: Mapping[task] = core ID
// (Definition 3). The paper requires the function to be injective —
// distinct tasks on distinct cores — but the repo also models the
// relaxed shared-core case (several tasks serialized on one core),
// the scenario of the larger mapping literature. Validate checks the
// relaxed shape/bounds contract; Injective tells the paper's strict
// one-to-one regime apart.
type Mapping []int

// Validate checks the shape/bounds contract shared by both mapping
// regimes: the mapping covers every task of g exactly once and stays
// inside the nCores cores of the platform. Several tasks may share a
// core — the time model serializes them (see internal/sched).
func (m Mapping) Validate(g *TaskGraph, nCores int) error {
	if len(m) != g.NumTasks() {
		return fmt.Errorf("graph: mapping covers %d tasks, graph has %d", len(m), g.NumTasks())
	}
	for t, p := range m {
		if p < 0 || p >= nCores {
			return fmt.Errorf("graph: task %d mapped to core %d outside [0,%d)", t, p, nCores)
		}
	}
	return nil
}

// Injective reports whether no core hosts more than one task — the
// paper's Definition 3 regime, under which the analytic time model
// needs no core serialization.
func (m Mapping) Injective() bool {
	seen := make(map[int]bool, len(m))
	for _, p := range m {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}
