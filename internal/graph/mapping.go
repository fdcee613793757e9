package graph

import "fmt"

// Mapping assigns each task to a core: Mapping[task] = core ID
// (Definition 3). The paper requires the function to be injective —
// distinct tasks on distinct cores — but the repo also models the
// relaxed shared-core case (several tasks serialized on one core),
// the scenario of the larger mapping literature. Validate checks the
// relaxed shape/bounds contract; ValidateInjective adds the paper's
// strict one-to-one rule.
type Mapping []int

// Validate checks the shape/bounds contract shared by both mapping
// regimes: the mapping covers every task of g exactly once and stays
// inside the nCores cores of the platform. Several tasks may share a
// core — the time model serializes them (see internal/sched). Paper
// mode uses ValidateInjective on top.
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

// ValidateInjective checks Validate plus Definition 3's strict
// injectivity: distinct tasks must run on distinct cores.
func (m Mapping) ValidateInjective(g *TaskGraph, nCores int) error {
	if err := m.Validate(g, nCores); err != nil {
		return err
	}
	used := make(map[int]int, len(m))
	for t, p := range m {
		if prev, ok := used[p]; ok {
			return fmt.Errorf("graph: tasks %d and %d both mapped to core %d", prev, t, p)
		}
		used[p] = t
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

// CoreLoads returns how many tasks the mapping places on each of the
// nCores cores.
func (m Mapping) CoreLoads(nCores int) []int {
	loads := make([]int, nCores)
	for _, p := range m {
		if p >= 0 && p < nCores {
			loads[p]++
		}
	}
	return loads
}

// Clone copies the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}
