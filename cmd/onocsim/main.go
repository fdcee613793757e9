// Command onocsim runs the cycle-resolution ring-ONoC simulator on a
// mapped task graph with a concrete wavelength allocation, printing
// the analytic metrics (time model, BER, bit energy), the simulated
// timeline as a Gantt chart, and the cross-validation between the
// two.
//
// Usage:
//
//	onocsim [flags]
//
//	-app string      task graph file (textual format with map lines);
//	                 default: the paper's virtual application
//	-nw int          wavelength channels on the comb (default 8)
//	-counts string   per-communication wavelength counts, e.g.
//	                 "1,4,2,3,2,3"; assigned with -policy
//	-genome string   explicit chromosome, e.g. "1000/0001/..."
//	                 (overrides -counts)
//	-policy string   first-fit, least-used, most-used, random
//	-seed int        seed for the random policy
//	-latency int     extra cycles per waveguide hop (default 0)
//	-width int       Gantt chart width in columns (default 72)
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

func main() {
	var (
		appPath = flag.String("app", "", "task graph file (default: paper app)")
		nw      = flag.Int("nw", 8, "wavelength channels")
		counts  = flag.String("counts", "1,1,1,1,1,1", "per-communication wavelength counts")
		genome  = flag.String("genome", "", "explicit chromosome (overrides -counts)")
		policy  = flag.String("policy", "least-used", "assignment policy for -counts")
		seed    = flag.Int64("seed", 1, "seed for the random policy")
		latency = flag.Int64("latency", 0, "extra cycles per hop")
		width   = flag.Int("width", 72, "gantt width")
		explain = flag.Bool("explain", false, "print the full per-wavelength link budget")
	)
	flag.Parse()
	if err := run(os.Stdout, *appPath, *nw, *counts, *genome, *policy, *seed, *latency, *width, *explain); err != nil {
		fmt.Fprintf(os.Stderr, "onocsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes one simulation and writes its report to w.
func run(w io.Writer, appPath string, nw int, countsStr, genomeStr, policyStr string, seed, latency int64, width int, explain bool) error {
	app, m, err := loadApp(appPath)
	if err != nil {
		return err
	}
	in, err := core.NewSharedInstance(core.Config{NW: nw, App: app, Mapping: m})
	if err != nil {
		return err
	}

	var g alloc.Genome
	if genomeStr != "" {
		g, err = alloc.ParseGenome(genomeStr, in.Edges(), in.Channels())
		if err != nil {
			return err
		}
	} else {
		counts, err := parseCounts(countsStr, in.Edges())
		if err != nil {
			return err
		}
		pol, err := parsePolicy(policyStr)
		if err != nil {
			return err
		}
		g, err = alloc.Assign(in, counts, pol, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
	}

	ev := in.Evaluate(g)
	fmt.Fprintf(w, "allocation %v  (chromosome %s)\n", ev.Counts, g)
	if !ev.Valid {
		return fmt.Errorf("allocation invalid: %s", ev.Reason())
	}
	fmt.Fprintf(w, "analytic:  time %.3f k-cc   bit energy %.3f fJ/bit   mean BER %.3e (log10 %.2f)\n",
		ev.TimeKCC(), ev.BitEnergyFJ, ev.MeanBER, ev.Log10MeanBER())

	res, err := sim.Run(in, g, sim.Options{LatencyPerHopCycles: latency})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated: time %.3f k-cc   laser energy %.1f fJ   violations %d\n\n",
		float64(res.MakespanCycles)/1000, res.LaserFJ, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	fmt.Fprint(w, sim.Gantt(in, res, width))

	fmt.Fprintf(w, "\nper-communication detail:\n")
	for e := range app.Edges {
		fmt.Fprintf(w, "  %-4s %2d->%-2d  %5.0f bits on %d lambda  window [%d,%d)  BER %.2e  %.1f fJ\n",
			app.Edges[e].Name, in.SrcCore(e), in.DstCore(e), app.Edges[e].VolumeBits,
			ev.Counts[e], res.CommStart[e], res.CommEnd[e], ev.CommBER[e], ev.CommEnergyFJ[e])
	}
	if explain {
		ex, err := in.Explain(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s", ex)
	}
	return nil
}

func loadApp(path string) (*graph.TaskGraph, graph.Mapping, error) {
	if path == "" {
		return graph.PaperApp(), graph.PaperMapping(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	app, m, err := graph.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	if m == nil {
		return nil, nil, fmt.Errorf("%s carries no map lines; the simulator needs a placement", path)
	}
	return app, m, nil
}

func parseCounts(s string, edges int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != edges {
		return nil, fmt.Errorf("%d counts for %d communications", len(parts), edges)
	}
	out := make([]int, edges)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad count %q", p)
		}
		out[i] = n
	}
	return out, nil
}

func parsePolicy(s string) (alloc.Policy, error) {
	switch s {
	case "first-fit":
		return alloc.FirstFit, nil
	case "random":
		return alloc.RandomFit, nil
	case "most-used":
		return alloc.MostUsed, nil
	case "least-used":
		return alloc.LeastUsed, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}
