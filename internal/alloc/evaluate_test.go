package alloc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/ring"
)

func mustInstance(t *testing.T, nw int) *Instance {
	t.Helper()
	in, err := DefaultInstance(nw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// disjointSets spreads each communication over its own channels so no
// conflict is possible; it needs nw >= edges when one channel each.
func allOnesDisjoint(t *testing.T, in *Instance) Genome {
	t.Helper()
	sets := make([][]int, in.Edges())
	for e := range sets {
		sets[e] = []int{e % in.Channels()}
	}
	g, err := FromSets(sets, in.Channels())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaultInstanceShape(t *testing.T) {
	in := mustInstance(t, 8)
	if in.Edges() != 6 || in.Channels() != 8 {
		t.Fatalf("instance shape %d/%d, want 6 edges / 8 channels", in.Edges(), in.Channels())
	}
	// Paths follow the mapping: c1 is T1(p1) -> T2(p5).
	if in.SrcCore(1) != 1 || in.DstCore(1) != 5 {
		t.Errorf("c1 route %d->%d, want 1->5", in.SrcCore(1), in.DstCore(1))
	}
	if in.Path(1).Hops() != 4 {
		t.Errorf("c1 hops = %d, want 4", in.Path(1).Hops())
	}
}

func TestNewInstanceValidation(t *testing.T) {
	r, _ := ring.New(ring.DefaultConfig(8))
	app := graph.PaperApp()
	if _, err := NewInstance(nil, app, graph.PaperMapping(), 1, energy.Default()); err == nil {
		t.Error("nil ring must fail")
	}
	if _, err := NewInstance(r, app, graph.Mapping{0, 1, 2}, 1, energy.Default()); err == nil {
		t.Error("short mapping must fail")
	}
	if _, err := NewInstance(r, app, graph.PaperMapping(), 0, energy.Default()); err == nil {
		t.Error("zero bandwidth must fail")
	}
	bad := energy.Default()
	bad.Duty = 0
	if _, err := NewInstance(r, app, graph.PaperMapping(), 1, bad); err == nil {
		t.Error("bad energy model must fail")
	}
}

func TestEvaluateAllOnesIsValid(t *testing.T) {
	in := mustInstance(t, 8)
	ev := in.Evaluate(allOnesDisjoint(t, in))
	if !ev.Valid {
		t.Fatalf("spread all-ones genome must be valid: %s", ev.Reason())
	}
	if ev.MakespanCycles != 36000 {
		t.Errorf("makespan = %v, want 36000 (single wavelength each)", ev.MakespanCycles)
	}
	if ev.TimeKCC() != 36 {
		t.Errorf("TimeKCC = %v, want 36", ev.TimeKCC())
	}
}

func TestEvaluateBitEnergyInPaperDecade(t *testing.T) {
	// The all-ones allocation is the paper's most energy-efficient
	// point at ~3.5 fJ/bit; dense allocations reach ~8 fJ/bit.
	in := mustInstance(t, 8)
	lean := in.Evaluate(allOnesDisjoint(t, in))
	if !lean.Valid {
		t.Fatal(lean.Reason())
	}
	if lean.BitEnergyFJ < 2 || lean.BitEnergyFJ > 5.5 {
		t.Errorf("lean bit energy = %v fJ/bit, want in the 3.5 fJ/bit region", lean.BitEnergyFJ)
	}
	dense := in.NewZeroGenome()
	for i := range dense.Bits() {
		dense.Bits()[i] = 1
	}
	dev := in.Evaluate(dense)
	// Dense same-channel allocation is likely invalid (conflicts), so
	// compare with a conflict-free dense genome instead: stagger via
	// heuristic assignment.
	if dev.Valid {
		if dev.BitEnergyFJ <= lean.BitEnergyFJ {
			t.Errorf("denser allocation must cost more energy: %v vs %v", dev.BitEnergyFJ, lean.BitEnergyFJ)
		}
	}
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, FirstFit, nil)
	if err != nil {
		t.Fatalf("first-fit staggering failed: %v", err)
	}
	mid := in.Evaluate(g)
	if !mid.Valid {
		t.Fatalf("staggered genome invalid: %s", mid.Reason())
	}
	if mid.BitEnergyFJ <= lean.BitEnergyFJ {
		t.Errorf("multi-wavelength allocation must cost more than all-ones: %v vs %v",
			mid.BitEnergyFJ, lean.BitEnergyFJ)
	}
	if mid.MakespanCycles >= lean.MakespanCycles {
		t.Errorf("multi-wavelength allocation must be faster: %v vs %v",
			mid.MakespanCycles, lean.MakespanCycles)
	}
}

func TestEvaluateInvalidZeroWavelengths(t *testing.T) {
	in := mustInstance(t, 8)
	g := in.NewZeroGenome()
	ev := in.Evaluate(g)
	if ev.Valid {
		t.Fatal("all-zero genome must be invalid")
	}
	if !math.IsInf(ev.MakespanCycles, 1) || !math.IsInf(ev.BitEnergyFJ, 1) {
		t.Error("invalid genome must carry infinite objectives")
	}
	if !strings.Contains(ev.Reason(), "no wavelength") {
		t.Errorf("reason = %q", ev.Reason())
	}
}

func TestEvaluateInvalidSharedWavelength(t *testing.T) {
	// c2 (T2->T4, cores 5->10) and c4 (T2->T5, cores 5->15) start at
	// the same instant (both wait for T2) and share segments; the
	// same channel on both must trip the validity rule.
	in := mustInstance(t, 8)
	sets := [][]int{{0}, {1}, {2}, {3}, {2}, {5}}
	g, err := FromSets(sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if ev.Valid {
		t.Fatal("conflicting genome must be invalid")
	}
	if !strings.Contains(ev.Reason(), "share wavelength 2") {
		t.Errorf("reason = %q", ev.Reason())
	}
}

func TestEvaluateSequentialCommsMayShareWavelength(t *testing.T) {
	// c1 (T1->T2) finishes before c2 (T2->T4) starts: same channel is
	// fine even though the paths overlap... the paths 1->5 and 5->10
	// don't overlap; use c1 and c5 (10->15)? also disjoint. c0 spans
	// 0->15 overlapping everything, but c0 [5,11) vs c5 [27,31) do
	// not overlap in time, so sharing a channel is legal.
	in := mustInstance(t, 8)
	sets := [][]int{{0}, {1}, {2}, {3}, {4}, {0}}
	g, err := FromSets(sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("time-disjoint channel reuse must be valid: %s", ev.Reason())
	}
}

func TestEvaluateShapeMismatch(t *testing.T) {
	in := mustInstance(t, 8)
	ev := in.Evaluate(NewGenome(6, 4))
	if ev.Valid {
		t.Error("shape mismatch must be invalid")
	}
}

func TestEvaluateBERWorsensWithParallelWavelengths(t *testing.T) {
	// More wavelengths on one communication -> more intra-channel
	// crosstalk -> higher BER. Compare c1 with 1 vs 6 adjacent
	// channels (others kept minimal and out of the way).
	in := mustInstance(t, 8)
	lean, err := FromSets([][]int{{7}, {0}, {0}, {1}, {1}, {0}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := FromSets([][]int{{7}, {0, 1, 2, 3, 4, 5}, {0}, {6}, {1}, {0}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	evLean := in.Evaluate(lean)
	evDense := in.Evaluate(dense)
	if !evLean.Valid {
		t.Fatalf("lean genome invalid: %s", evLean.Reason())
	}
	if !evDense.Valid {
		t.Fatalf("dense genome invalid: %s", evDense.Reason())
	}
	if evDense.CommBER[1] <= evLean.CommBER[1] {
		t.Errorf("c1 BER with 6 channels (%g) must exceed single channel (%g)",
			evDense.CommBER[1], evLean.CommBER[1])
	}
	if evDense.MeanBER <= evLean.MeanBER {
		t.Errorf("mean BER must degrade with parallelism: %g vs %g", evDense.MeanBER, evLean.MeanBER)
	}
	if evDense.WorstBER < evDense.MeanBER {
		t.Error("worst BER cannot sit below mean BER")
	}
}

func TestEvaluateSpreadChannelsBeatAdjacent(t *testing.T) {
	// Same wavelength count, but spacing the channels apart reduces
	// the Lorentzian leakage and hence the BER: the reason wavelength
	// *selection*, not just count, matters (Fig. 7's spread).
	in := mustInstance(t, 12)
	adjacent, err := FromSets([][]int{{11}, {0, 1, 2}, {0}, {6}, {1}, {0}}, 12)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := FromSets([][]int{{11}, {0, 4, 9}, {0}, {6}, {1}, {0}}, 12)
	if err != nil {
		t.Fatal(err)
	}
	evAdj := in.Evaluate(adjacent)
	evSpread := in.Evaluate(spread)
	if !evAdj.Valid || !evSpread.Valid {
		t.Fatalf("genomes invalid: %s / %s", evAdj.Reason(), evSpread.Reason())
	}
	if evSpread.CommBER[1] >= evAdj.CommBER[1] {
		t.Errorf("spread channels must lower BER: %g vs %g", evSpread.CommBER[1], evAdj.CommBER[1])
	}
	// Same counts -> same schedule.
	if evSpread.MakespanCycles != evAdj.MakespanCycles {
		t.Error("channel positions must not change the schedule")
	}
}

func TestEvaluateTimeMatchesHandSchedule(t *testing.T) {
	// Hand-checked schedule for counts [1,4,2,3,2,3] (one of the
	// paper's 12-wavelength vectors): c1 takes 2k so T2 ends at 12k;
	// c2 takes 2k and c3 2k so T4 starts max(14k, 7k) = 14k and ends
	// 19k; c5 takes 4/3 k so T5 starts max(11k, 16k, 20.33k) and the
	// makespan is 20333.3 + 5000 = 25333.3 cycles.
	in := mustInstance(t, 12)
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("invalid: %s", ev.Reason())
	}
	want := 24000 + 4000.0/3
	if math.Abs(ev.MakespanCycles-want) > 1e-6 {
		t.Errorf("makespan = %v, want %v", ev.MakespanCycles, want)
	}
}

func TestEvaluateInterCommCrosstalkRaisesBER(t *testing.T) {
	// c3 (p2->p10) passes through c2's destination (p10)? No: c2's
	// destination IS p10, and c3 also ends at p10. Shift c3's window
	// to overlap c2's by giving c1 enough bandwidth: both feeds of T4
	// then fly concurrently and leak into each other's detectors.
	// counts [1,8?]... keep it explicit: c1 gets 4 channels so T2
	// ends at 12k; c2 [12,16) with ch {4}; c3 [5,11) with ch {5}: no
	// overlap. Widen c3's window by giving it 1 channel on a 6 kb
	// transfer: [5,11). Overlap needs c2 to start before 11k: c1 on
	// 4 channels ends at 7k, T2 ends 12k. Not enough; give c1 all 8:
	// T2 ends 11k, c2 [11,15) vs c3 [5,11): still disjoint (half
	// open). So instead move c3's start later by loading c1 less and
	// slowing c3... c3 starts at T3's end (5k) regardless. Use a
	// fatter c3: 6 kb on 1 channel = [5,11). The honest way to get
	// overlap: compare c2's BER with c3 active vs c3 absent
	// (zero-volume c3 clone).
	app := graph.PaperApp()
	app.Edges[2].VolumeBits = 8000 // c2: p5->p10, window [10+? ..]
	r, err := ring.New(ring.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	quiet := graph.PaperApp()
	quiet.Edges[2].VolumeBits = 8000
	quiet.Edges[3].VolumeBits = 0 // silence c3
	inLoud, err := NewInstance(r, app, graph.PaperMapping(), 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	inQuiet, err := NewInstance(r, quiet, graph.PaperMapping(), 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	// c1 on 4 channels {0-3}: T2 ends at 5+2+5 = 12k; c2 on {4} runs
	// [12,20); c3 on {5} runs [5,11)... still disjoint. Make c3 carry
	// 16 kb? Volumes are ours to choose in this synthetic variant.
	app.Edges[3].VolumeBits = 16000 // c3 window [5,21) overlaps c2
	sets := [][]int{{7}, {0, 1, 2, 3}, {4}, {5}, {6}, {7}}
	g, err := FromSets(sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	evLoud := inLoud.Evaluate(g)
	zsets := [][]int{{7}, {0, 1, 2, 3}, {4}, {}, {6}, {7}}
	zg, err := FromSets(zsets, 8)
	if err != nil {
		t.Fatal(err)
	}
	evQuiet := inQuiet.Evaluate(zg)
	if !evLoud.Valid {
		t.Fatalf("loud genome invalid: %s", evLoud.Reason())
	}
	if !evQuiet.Valid {
		t.Fatalf("quiet genome invalid: %s", evQuiet.Reason())
	}
	// c3 (p2 -> p10) terminates at c2's destination p10 while c2 is
	// receiving: its channel leaks into c2's detectors.
	if evLoud.CommBER[2] <= evQuiet.CommBER[2] {
		t.Errorf("inter-communication crosstalk must raise c2's BER: %g vs %g",
			evLoud.CommBER[2], evQuiet.CommBER[2])
	}
}

func TestEvaluateZeroVolumeEdgeSkipped(t *testing.T) {
	in := mustInstance(t, 8)
	app := graph.PaperApp()
	app.Edges[0].VolumeBits = 0
	r := in.Fabric()
	in2, err := NewInstance(r, app, in.Map, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{{}, {1}, {2}, {3}, {4}, {5}}
	g, err := FromSets(sets, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := in2.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("zero-volume edge without wavelengths must be fine: %s", ev.Reason())
	}
	if ev.CommEnergyFJ[0] != 0 || ev.CommBER[0] != 0 {
		t.Error("silent edge must cost nothing")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	in := mustInstance(t, 8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomGenome(rng, in.Edges(), in.Channels(), 0.3)
		a := in.Evaluate(g)
		b := in.Evaluate(g)
		if a.Valid != b.Valid || a.MakespanCycles != b.MakespanCycles ||
			a.BitEnergyFJ != b.BitEnergyFJ || a.MeanBER != b.MeanBER {
			t.Fatal("evaluation must be deterministic")
		}
	}
}

func TestObjectivesProjection(t *testing.T) {
	in := mustInstance(t, 8)
	ev := in.Evaluate(allOnesDisjoint(t, in))
	objs := make([]float64, 3)
	ev.ObjectivesInto(objs, []Objective{ObjTime, ObjEnergy, ObjBER})
	if objs[0] != ev.MakespanCycles || objs[1] != ev.BitEnergyFJ || objs[2] != ev.MeanBER {
		t.Errorf("projection mismatch: %v", objs)
	}
	bad := make([]float64, 2)
	invalid("x", 2).ObjectivesInto(bad, []Objective{ObjTime, ObjBER})
	for _, v := range bad {
		if !math.IsInf(v, 1) {
			t.Error("invalid genome must project to +Inf")
		}
	}
}

func TestObjectiveStrings(t *testing.T) {
	names := map[Objective]string{ObjTime: "execution time", ObjEnergy: "bit energy", ObjBER: "mean BER"}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Objective(99).String() == "" {
		t.Error("unknown objective must still render")
	}
}
