package alloc

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sched"
)

// The related-work section of the paper lists the classic static
// wavelength-assignment heuristics for WDM networks (after Zang et
// al.): Random, First-Fit, Most-Used and Least-Used. This file
// implements them on the fabric interface so the GA has baselines to
// beat:
// given a per-communication wavelength count, each heuristic picks
// concrete channels while respecting the same validity rule the GA
// chromosomes are checked against.

// Policy selects the channel-ordering strategy of a heuristic
// assignment.
type Policy int

const (
	// FirstFit prefers the lowest-indexed free channels.
	FirstFit Policy = iota
	// RandomFit picks uniformly among the free channels.
	RandomFit
	// MostUsed prefers channels already used by many other
	// communications (packs wavelengths, maximising reuse).
	MostUsed
	// LeastUsed prefers the least-used channels (spreads load, the
	// crosstalk-friendly choice).
	LeastUsed
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case RandomFit:
		return "random"
	case MostUsed:
		return "most-used"
	case LeastUsed:
		return "least-used"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Assign builds a genome reserving counts[e] wavelengths for each
// communication following the policy. Communications are processed in
// order of their activity-window start (the schedule is fully
// determined by the counts and the instance's mapping); each pick
// avoids channels that would violate the validity rule against
// already-assigned, time- and path-overlapping communications. Self
// edges of shared-core mappings are skipped — they need no
// wavelengths, whatever their count says. rng is only consulted by
// RandomFit. Returns an error when a communication cannot be served,
// i.e. the counts are infeasible for this policy.
func Assign(in *Instance, counts []int, policy Policy, rng *rand.Rand) (Genome, error) {
	if len(counts) != in.Edges() {
		return Genome{}, fmt.Errorf("alloc: %d counts for %d communications", len(counts), in.Edges())
	}
	if policy == RandomFit && rng == nil {
		return Genome{}, fmt.Errorf("alloc: random assignment needs a rand source")
	}
	p, err := sched.NewPlannerMapped(in.App, in.Map, in.fab.Size())
	if err != nil {
		return Genome{}, err
	}
	s := &sched.Schedule{}
	if err := p.ComputeInto(s, counts, in.BitsPerCycle); err != nil {
		return Genome{}, err
	}
	order := make([]int, in.Edges())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.Comm[order[a]].Start < s.Comm[order[b]].Start
	})

	nw := in.Channels()
	g := NewGenome(in.Edges(), nw)
	usage := make([]int, nw) // how many assigned communications use each channel
	assigned := make([]bool, in.Edges())
	for _, e := range order {
		if counts[e] == 0 || in.SelfEdge(e) {
			assigned[e] = true
			continue
		}
		blocked := make([]bool, nw)
		for o := 0; o < in.Edges(); o++ {
			if !assigned[o] || o == e {
				continue
			}
			if !s.Comm[e].Overlaps(s.Comm[o]) || !in.paths[e].Overlaps(in.paths[o]) {
				continue
			}
			for ch := 0; ch < nw; ch++ {
				if g.Get(o, ch) {
					blocked[ch] = true
				}
			}
		}
		free := make([]int, 0, nw)
		for ch := 0; ch < nw; ch++ {
			if !blocked[ch] {
				free = append(free, ch)
			}
		}
		if len(free) < counts[e] {
			return Genome{}, fmt.Errorf("alloc: %s assignment starves communication %s (%d free, %d wanted)",
				policy, in.App.Edges[e].Name, len(free), counts[e])
		}
		orderChannels(free, policy, usage, rng)
		for _, ch := range free[:counts[e]] {
			g.Set(e, ch, true)
			usage[ch]++
		}
		assigned[e] = true
	}
	return g, nil
}

// orderChannels reorders the free channel list in the policy's
// preference order.
func orderChannels(free []int, policy Policy, usage []int, rng *rand.Rand) {
	switch policy {
	case FirstFit:
		sort.Ints(free)
	case RandomFit:
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	case MostUsed:
		sort.SliceStable(free, func(i, j int) bool {
			if usage[free[i]] != usage[free[j]] {
				return usage[free[i]] > usage[free[j]]
			}
			return free[i] < free[j]
		})
	case LeastUsed:
		sort.SliceStable(free, func(i, j int) bool {
			if usage[free[i]] != usage[free[j]] {
				return usage[free[i]] < usage[free[j]]
			}
			return free[i] < free[j]
		})
	}
}

// UniformCounts returns the n-per-communication count vector, the
// natural baseline inputs ([1,1,...] is the paper's most
// energy-efficient allocation).
func UniformCounts(edges, n int) []int {
	counts := make([]int, edges)
	for i := range counts {
		counts[i] = n
	}
	return counts
}
