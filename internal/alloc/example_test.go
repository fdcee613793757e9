package alloc_test

import (
	"fmt"

	"repro/internal/alloc"
)

// The paper's Section III-D chromosome: six communications over four
// wavelengths, one wavelength each.
func ExampleParseGenome() {
	g, err := alloc.ParseGenome("1000/0001/0001/0001/1000/1000", 6, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("counts:", g.CountsInto(make([]int, g.Edges())))
	fmt.Println("c0 channels:", g.ChannelSet(0))
	// Output:
	// counts: [1 1 1 1 1 1]
	// c0 channels: [0]
}

// Evaluating the energy-optimal all-ones allocation on the paper's
// default platform.
func ExampleInstance_Evaluate() {
	in, err := alloc.DefaultInstance(8)
	if err != nil {
		fmt.Println(err)
		return
	}
	g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 1), alloc.LeastUsed, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	ev := in.Evaluate(g)
	fmt.Printf("valid: %v\n", ev.Valid)
	fmt.Printf("time: %.0f k-cc\n", ev.TimeKCC())
	fmt.Printf("energy: %.2f fJ/bit\n", ev.BitEnergyFJ)
	// Output:
	// valid: true
	// time: 36 k-cc
	// energy: 3.68 fJ/bit
}

// The validity rule in action: two time-overlapping communications on
// shared waveguide segments may not share a wavelength.
func ExampleInstance_Evaluate_invalid() {
	in, err := alloc.DefaultInstance(8)
	if err != nil {
		fmt.Println(err)
		return
	}
	// c2 and c4 both leave T2's core at the same instant; channel 2
	// on both violates the rule.
	g, err := alloc.FromSets([][]int{{0}, {1}, {2}, {3}, {2}, {5}}, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	ev := in.Evaluate(g)
	fmt.Println(ev.Valid)
	fmt.Println(ev.Reason())
	// Output:
	// false
	// communications c2 and c4 share wavelength 2 on a common link while both active
}
