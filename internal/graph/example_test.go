package graph_test

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// The paper's virtual application (Fig. 5) in the textual exchange
// format.
func ExamplePaperApp() {
	app := graph.PaperApp()
	floor, _ := app.CriticalPathCycles()
	fmt.Printf("%d tasks, %d communications, %.0f k-cc floor\n",
		app.NumTasks(), app.NumEdges(), floor/1000)
	// Output: 6 tasks, 6 communications, 20 k-cc floor
}

func ExampleParse() {
	src := `
task producer 1000
task consumer 2000
edge stream producer consumer 4096
map producer 0
map consumer 5
`
	app, m, err := graph.Parse(strings.NewReader(src))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s -> core %d\n", app.Tasks[1].Name, m[1])
	fmt.Printf("volume: %.0f bits\n", app.Edges[0].VolumeBits)
	// Output:
	// consumer -> core 5
	// volume: 4096 bits
}
