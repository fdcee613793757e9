package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/ring"
)

// busyCycles sums the lengths of busy intervals.
func busyCycles(ivs []Interval) int64 {
	var busy int64
	for _, iv := range ivs {
		busy += iv.End - iv.Start
	}
	return busy
}

func mustInstance(t *testing.T, nw int) *alloc.Instance {
	t.Helper()
	in, err := alloc.DefaultInstance(nw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func spreadOnes(t *testing.T, in *alloc.Instance) alloc.Genome {
	t.Helper()
	sets := make([][]int, in.Edges())
	for e := range sets {
		sets[e] = []int{e % in.Channels()}
	}
	g, err := alloc.FromSets(sets, in.Channels())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimMatchesAnalyticOnIntegerSchedule(t *testing.T) {
	// All-ones allocation: every duration is integral, so the
	// simulator must agree with the analytic model exactly.
	in := mustInstance(t, 8)
	g := spreadOnes(t, in)
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanCycles != 36000 {
		t.Errorf("sim makespan = %d, want 36000", res.MakespanCycles)
	}
	ev := in.Evaluate(g)
	if float64(res.MakespanCycles) != ev.MakespanCycles {
		t.Errorf("sim %d vs analytic %v", res.MakespanCycles, ev.MakespanCycles)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations on a valid genome: %v", res.Violations)
	}
}

func TestSimBracketsAnalyticOnFractionalSchedule(t *testing.T) {
	// Counts like [1,4,2,3,2,3] yield fractional analytic durations;
	// the integer simulator may only round up, by less than one cycle
	// per communication in the chain.
	in := mustInstance(t, 12)
	g, err := alloc.Assign(in, []int{1, 4, 2, 3, 2, 3}, alloc.LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	simT := float64(res.MakespanCycles)
	if simT < ev.MakespanCycles-1e-9 {
		t.Errorf("simulated %v beats analytic %v: impossible", simT, ev.MakespanCycles)
	}
	if simT > ev.MakespanCycles+float64(in.Edges()) {
		t.Errorf("simulated %v exceeds analytic %v by more than ceiling slack", simT, ev.MakespanCycles)
	}
}

func TestSimRandomValidAllocationsAgree(t *testing.T) {
	// Property over random feasible allocations: the simulator
	// brackets the analytic makespan and reports no violations.
	in := mustInstance(t, 8)
	rng := rand.New(rand.NewSource(5))
	trials := 0
	for trials < 25 {
		counts := make([]int, in.Edges())
		for i := range counts {
			counts[i] = 1 + rng.Intn(3)
		}
		g, err := alloc.Assign(in, counts, alloc.RandomFit, rng)
		if err != nil {
			continue // infeasible counts: skip
		}
		trials++
		ev := in.Evaluate(g)
		if !ev.Valid {
			t.Fatalf("heuristic allocation invalid: %s", ev.Reason())
		}
		res, err := Run(in, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations for valid genome %v: %v", counts, res.Violations)
		}
		simT := float64(res.MakespanCycles)
		if simT < ev.MakespanCycles-1e-9 || simT > ev.MakespanCycles+float64(in.Edges()) {
			t.Fatalf("sim %v vs analytic %v out of bracket", simT, ev.MakespanCycles)
		}
	}
}

func TestSimRejectsInvalidGenome(t *testing.T) {
	in := mustInstance(t, 8)
	if _, err := Run(in, in.NewZeroGenome(), Options{}); err == nil {
		t.Error("invalid genome must be rejected in checked mode")
	}
}

func TestSimUncheckedDetectsConflict(t *testing.T) {
	// Unchecked runs of conflicting genomes must report every
	// double-booked (resource, channel) pair, resource-major then
	// channel, in the fabric's own vocabulary. The slices are pinned
	// whole: wording and order are part of the output (onocsim prints
	// them verbatim).
	x, err := crossbar.New(crossbar.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// T4 shares T5's core, so on the crossbar c0 (12->15) and c3
	// (13->15) ride destination 15's waveguide during the same window.
	xin, err := alloc.NewInstance(x, graph.PaperApp(), graph.Mapping{12, 1, 5, 13, 15, 15}, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *alloc.Instance
		sets [][]int
		want []string
	}{{
		// c2 and c4 overlap in time and share segments; both on
		// channel 2.
		name: "ring",
		in:   mustInstance(t, 8),
		sets: [][]int{{0}, {1}, {2}, {3}, {2}, {5}},
		want: []string{
			"segment 5 channel 2 double-booked: c2 [18000,22000) vs c4 [18000,26000)",
			"segment 6 channel 2 double-booked: c2 [18000,22000) vs c4 [18000,26000)",
			"segment 7 channel 2 double-booked: c2 [18000,22000) vs c4 [18000,26000)",
			"segment 8 channel 2 double-booked: c2 [18000,22000) vs c4 [18000,26000)",
			"segment 9 channel 2 double-booked: c2 [18000,22000) vs c4 [18000,26000)",
		},
	}, {
		name: "crossbar",
		in:   xin,
		sets: [][]int{{0, 6}, {1}, {2}, {0, 6}, {4}, {}},
		want: []string{
			"hop 253 channel 0 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
			"hop 253 channel 6 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
			"hop 254 channel 0 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
			"hop 254 channel 6 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
			"hop 255 channel 0 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
			"hop 255 channel 6 double-booked: c0 [5000,8000) vs c3 [5000,8000)",
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := alloc.FromSets(c.sets, 8)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(c.in, g, Options{Unchecked: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Violations, c.want) {
				t.Errorf("violations:\n got %q\nwant %q", res.Violations, c.want)
			}
		})
	}
}

func TestSimHopLatencyMonotone(t *testing.T) {
	in := mustInstance(t, 8)
	g := spreadOnes(t, in)
	base, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(in, g, Options{LatencyPerHopCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if slow.MakespanCycles <= base.MakespanCycles {
		t.Errorf("hop latency must slow the run: %d vs %d", slow.MakespanCycles, base.MakespanCycles)
	}
	if _, err := Run(in, g, Options{LatencyPerHopCycles: -1}); err == nil {
		t.Error("negative latency must be rejected")
	}
}

func TestSimEnergyTracksAnalytic(t *testing.T) {
	in := mustInstance(t, 8)
	g := spreadOnes(t, in)
	ev := in.Evaluate(g)
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var analyticFJ float64
	for _, e := range ev.CommEnergyFJ {
		analyticFJ += e
	}
	if math.Abs(res.LaserFJ-analyticFJ) > 1e-6*analyticFJ {
		t.Errorf("sim energy %v vs analytic %v (integer windows are exact here)", res.LaserFJ, analyticFJ)
	}
}

func TestSimOccupancyTraces(t *testing.T) {
	in := mustInstance(t, 8)
	g := spreadOnes(t, in)
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// c1 (edge 1) runs on channel 1 over path 1->5 (segments 1..4)
	// during [5000,13000).
	for _, seg := range in.Path(1).Resources() {
		ivs := res.SegmentChannel(seg, 1)
		if len(ivs) != 1 {
			t.Fatalf("segment %d channel 1 intervals = %v", seg, ivs)
		}
		if ivs[0].Start != 5000 || ivs[0].End != 13000 || ivs[0].Comm != 1 {
			t.Errorf("segment %d interval = %+v", seg, ivs[0])
		}
	}
	// Busy accounting: c1 holds 4 segments for 8000 cycles each.
	var channelBusy, segmentBusy int64
	for seg := range res.slot {
		channelBusy += busyCycles(res.SegmentChannel(seg, 1))
	}
	for ch := 0; ch < in.Channels(); ch++ {
		segmentBusy += busyCycles(res.SegmentChannel(1, ch))
	}
	if channelBusy != 4*8000 {
		t.Errorf("channel 1 busy = %d, want 32000", channelBusy)
	}
	if segmentBusy <= 0 {
		t.Errorf("segment 1 busy = %d, want positive", segmentBusy)
	}
}

func TestSimZeroVolumeEdge(t *testing.T) {
	in := mustInstance(t, 8)
	app := graph.PaperApp()
	app.Edges[0].VolumeBits = 0
	in2, err := alloc.NewInstance(in.Fabric(), app, in.Map, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{{}, {1}, {2}, {3}, {4}, {5}}
	g, err := alloc.FromSets(sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in2, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommEnd[0] != res.CommStart[0] {
		t.Error("zero-volume transfer must be instantaneous")
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

// sharedInstance builds a >16-task chain mapped with shared cores
// onto the paper's 16-core ring.
func sharedInstance(t *testing.T, nTasks int, cfg graph.GenConfig, seed int64) *alloc.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	app, err := graph.Chain(rng, nTasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.SharedRandomMapping(rng, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	in, err := alloc.NewInstance(r, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSimSharedCoreMatchesAnalyticOnIntegerSchedule(t *testing.T) {
	// Constant integer execution times and volumes with one wavelength
	// per communication: every duration is integral, so the simulator
	// and the core-serialized analytic model must agree exactly —
	// including the per-core dispatch order.
	cfg := graph.GenConfig{ExecMin: 4000, ExecMax: 4000, VolMin: 4000, VolMax: 4000}
	in := sharedInstance(t, 24, cfg, 3)
	g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 1), alloc.LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("allocation invalid: %s", ev.Reason())
	}
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.MakespanCycles) != ev.MakespanCycles {
		t.Errorf("sim %d vs analytic %v on an integer schedule", res.MakespanCycles, ev.MakespanCycles)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations on a valid shared-core genome: %v", res.Violations)
	}
	for tsk := range res.TaskStart {
		if float64(res.TaskStart[tsk]) != ev.Schedule.TaskStart[tsk] {
			t.Errorf("task %d starts at %d, analytic %v", tsk, res.TaskStart[tsk], ev.Schedule.TaskStart[tsk])
		}
	}
}

func TestSimSharedCoreBracketsAnalytic(t *testing.T) {
	// Property over random fractional shared-core workloads: the
	// integer simulator reports no violations and lands within one
	// ceiling per task and communication — plus one task execution,
	// since an integer-rounding tie may reorder same-core dispatch
	// against the fractional model — of the core-serialized analytic
	// makespan.
	for seed := int64(1); seed <= 10; seed++ {
		in := sharedInstance(t, 20+int(seed), graph.DefaultGenConfig(), seed)
		rng := rand.New(rand.NewSource(seed * 7))
		counts := make([]int, in.Edges())
		for i := range counts {
			counts[i] = 1 + rng.Intn(3)
		}
		g, err := alloc.Assign(in, counts, alloc.LeastUsed, nil)
		if err != nil {
			continue // infeasible budget on this placement: skip
		}
		ev := in.Evaluate(g)
		if !ev.Valid {
			t.Fatalf("seed %d: heuristic allocation invalid: %s", seed, ev.Reason())
		}
		res, err := Run(in, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		var maxExec float64
		for _, tsk := range in.App.Tasks {
			if tsk.ExecCycles > maxExec {
				maxExec = tsk.ExecCycles
			}
		}
		simT := float64(res.MakespanCycles)
		slack := float64(in.App.NumTasks()+in.Edges()+1) + maxExec
		if simT < ev.MakespanCycles-maxExec-1e-9 || simT > ev.MakespanCycles+slack {
			t.Fatalf("seed %d: sim %v vs analytic %v out of bracket (slack %v)",
				seed, simT, ev.MakespanCycles, slack)
		}
	}
}

func TestSimCoreOccupancyTraces(t *testing.T) {
	cfg := graph.GenConfig{ExecMin: 1000, ExecMax: 1000, VolMin: 2000, VolMax: 2000}
	in := sharedInstance(t, 32, cfg, 9)
	g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 1), alloc.FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every task appears in exactly one core interval, on its mapped
	// core, and per-core busy cycles add up to its tasks' work.
	seen := make(map[int]bool)
	for core, ivs := range res.CoreBusy {
		var want int64
		for tsk, c := range in.Map {
			if c == core {
				want += int64(in.App.Tasks[tsk].ExecCycles)
			}
		}
		if got := busyCycles(ivs); got != want {
			t.Errorf("core %d busy %d cycles, tasks need %d", core, got, want)
		}
		for _, iv := range ivs {
			if in.Map[iv.Comm] != core {
				t.Errorf("task %d recorded on core %d, mapped to %d", iv.Comm, core, in.Map[iv.Comm])
			}
			if seen[iv.Comm] {
				t.Errorf("task %d booked twice", iv.Comm)
			}
			seen[iv.Comm] = true
		}
	}
	if len(seen) != in.App.NumTasks() {
		t.Errorf("%d of %d tasks booked a core", len(seen), in.App.NumTasks())
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestSimUncheckedInvalidLaserIsNaN(t *testing.T) {
	// An analytically invalid genome carries no energy windows: the
	// unchecked run must say NaN, not a silent 0.
	in := mustInstance(t, 8)
	res, err := Run(in, in.NewZeroGenome(), Options{Unchecked: true})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.LaserFJ) {
		t.Errorf("LaserFJ = %v for an invalid unchecked run, want NaN", res.LaserFJ)
	}
}

func TestGanttRendering(t *testing.T) {
	in := mustInstance(t, 8)
	g := spreadOnes(t, in)
	res, err := Run(in, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chart := Gantt(in, res, 60)
	for _, name := range []string{"T0", "T5", "c0", "c5"} {
		if !strings.Contains(chart, name) {
			t.Errorf("gantt missing row %s:\n%s", name, chart)
		}
	}
	if !strings.Contains(chart, "#") || !strings.Contains(chart, "=") {
		t.Error("gantt must draw execution and transfer bars")
	}
	// Tiny width is clamped, not panicking.
	_ = Gantt(in, res, 1)
}

func TestCeil64(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{8000, 8000},
		{2666.6666666, 2667},
		{0.1, 1},
		{0, 0},
		// Guard against float noise pushing integers up.
		{3999.9999999999995, 4000},
	}
	for _, c := range cases {
		if got := ceil64(c.in); got != c.want {
			t.Errorf("ceil64(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
