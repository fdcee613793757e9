package alloc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sched"
)

// refValidity is the pre-mask reference implementation of the
// validity rules: decode per-edge channel sets as [][]int, grade
// missing reservations, run the planner, then scan every edge pair
// against the window overlap, the path overlap and the sorted-set
// intersection. The property tests pin the bitmask conflict kernel to
// this oracle bit for bit (violation grade AND first-failure reason).
func refValidity(t *testing.T, in *Instance, g Genome) (violation float64, reason string) {
	t.Helper()
	nl, nw := in.Edges(), in.Channels()
	sets := make([][]int, nl)
	eff := make([]int, nl)
	for ei := 0; ei < nl; ei++ {
		for ch := 0; ch < nw; ch++ {
			if g.Get(ei, ch) {
				sets[ei] = append(sets[ei], ch)
			}
		}
		eff[ei] = len(sets[ei])
		if len(sets[ei]) == 0 && in.App.Edges[ei].VolumeBits > 0 && !in.SelfEdge(ei) {
			violation++
			if reason == "" {
				reason = fmt.Sprintf("communication %s reserves no wavelength", in.App.Edges[ei].Name)
			}
			eff[ei] = 1
		}
	}
	planner, err := sched.NewPlannerMapped(in.App, in.Map, in.Fabric().Size())
	if err != nil {
		t.Fatal(err)
	}
	var s sched.Schedule
	if err := planner.ComputeInto(&s, eff, in.BitsPerCycle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nl; i++ {
		for j := i + 1; j < nl; j++ {
			if !s.Comm[i].Overlaps(s.Comm[j]) || !in.Path(i).Overlaps(in.Path(j)) {
				continue
			}
			if shared := countShared(sets[i], sets[j]); shared > 0 {
				violation += float64(shared)
				if reason == "" {
					reason = fmt.Sprintf("communications %s and %s share wavelength %d on a common link while both active",
						in.App.Edges[i].Name, in.App.Edges[j].Name, intersects(sets[i], sets[j]))
				}
			}
		}
	}
	return violation, reason
}

// intersects returns a channel present in both sorted sets, or -1.
func intersects(a, b []int) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return -1
}

// countShared returns how many channels two sorted sets share.
func countShared(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// checkMaskAgainstReference compares one genome's EvaluateInto result
// against the set-based oracle.
func checkMaskAgainstReference(t *testing.T, in *Instance, ev *Evaluator, g Genome) {
	t.Helper()
	wantViolation, wantReason := refValidity(t, in, g)
	var out Eval
	ev.EvaluateInto(&out, g)
	if out.Valid != (wantViolation == 0) {
		t.Fatalf("NW=%d genome %s: mask kernel valid=%v, reference violation=%v",
			in.Channels(), g, out.Valid, wantViolation)
	}
	if !out.Valid {
		if out.Violation != wantViolation {
			t.Fatalf("NW=%d genome %s: mask violation %v, reference %v",
				in.Channels(), g, out.Violation, wantViolation)
		}
		if out.Reason() != wantReason {
			t.Fatalf("NW=%d genome %s:\nmask reason      %q\nreference reason %q",
				in.Channels(), g, out.Reason(), wantReason)
		}
	}
}

// TestMaskKernelMatchesSetKernel is the equivalence property test of
// the tentpole: across NW in {4, 8, 16} and randomized genomes of
// every density (from surely-invalid sparse to conflict-heavy dense),
// the bitmask conflict kernel and the [][]int set-based validity
// check agree on validity, on the violation grade and on the
// first-failure reason.
func TestMaskKernelMatchesSetKernel(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + nw)))
		for trial := 0; trial < 300; trial++ {
			g := in.NewZeroGenome()
			density := float64(trial%10) / 9
			for e := 0; e < in.Edges(); e++ {
				for ch := 0; ch < nw; ch++ {
					if rng.Float64() < density {
						g.Set(e, ch, true)
					}
				}
			}
			checkMaskAgainstReference(t, in, ev, g)
		}
		// Known-valid genomes via the heuristics, so the valid branch
		// is exercised for sure at every comb size.
		for n := 1; n <= 2; n++ {
			g, err := Assign(in, UniformCounts(in.Edges(), n), FirstFit, nil)
			if err != nil {
				continue
			}
			checkMaskAgainstReference(t, in, ev, g)
		}
	}
}

// TestMaskIntoMatchesChannelSets pins the decoder itself: MaskInto
// rows agree with ChannelSet and Counts on random genomes, including
// multi-word rows (NW > 64).
func TestMaskIntoMatchesChannelSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nw := range []int{1, 4, 8, 16, 63, 64, 65, 130} {
		edges := 1 + rng.Intn(8)
		g := NewGenome(edges, nw)
		for i := range g.Bits() {
			g.Bits()[i] = byte(rng.Intn(2))
		}
		words := (nw + 63) / 64
		masks := make([]uint64, edges*words)
		g.MaskInto(masks, words)
		counts := g.CountsInto(make([]int, g.Edges()))
		for e := 0; e < edges; e++ {
			row := masks[e*words : (e+1)*words]
			n := 0
			var set []int
			for w, word := range row {
				n += bits.OnesCount64(word)
				for word != 0 {
					set = append(set, w*64+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			if n != counts[e] {
				t.Fatalf("NW=%d edge %d: mask popcount %d, Counts %d", nw, e, n, counts[e])
			}
			want := g.ChannelSet(e)
			if len(set) != len(want) {
				t.Fatalf("NW=%d edge %d: mask set %v, ChannelSet %v", nw, e, set, want)
			}
			for i := range want {
				if set[i] != want[i] {
					t.Fatalf("NW=%d edge %d: mask set %v, ChannelSet %v", nw, e, set, want)
				}
			}
		}
	}
}

// TestMaskIntoReadsAnyNonzeroGene feeds MaskInto genes of every byte
// value: any nonzero byte reserves its channel, at every position of
// the eight genes MaskInto reads per step and in the tail past them,
// and a row wider than the comb is cleared past it.
func TestMaskIntoReadsAnyNonzeroGene(t *testing.T) {
	check := func(g Genome) {
		t.Helper()
		words := fabric.MaskWords(g.Channels()) + 1
		masks := make([]uint64, g.Edges()*words)
		for i := range masks {
			masks[i] = ^uint64(0) // stale bits MaskInto must clear
		}
		g.MaskInto(masks, words)
		for e := 0; e < g.Edges(); e++ {
			for ch := 0; ch < words*64; ch++ {
				got := masks[e*words+ch>>6]&(1<<(uint(ch)&63)) != 0
				if want := ch < g.Channels() && g.Get(e, ch); got != want {
					t.Fatalf("NW=%d genes %v: edge %d channel %d masked %v, want %v",
						g.Channels(), g.Bits(), e, ch, got, want)
				}
			}
		}
	}
	for v := 0; v < 256; v++ {
		for pos := 0; pos < 9; pos++ {
			g := NewGenome(1, 9)
			g.Bits()[pos] = byte(v)
			check(g)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, nw := range []int{1, 7, 8, 9, 16, 63, 64, 65, 130} {
		g := NewGenome(1+rng.Intn(6), nw)
		for i := range g.Bits() {
			if rng.Intn(2) == 0 {
				g.Bits()[i] = byte(1 + rng.Intn(255))
			}
		}
		check(g)
	}
}

// TestConflictNeighborsMatchOverlapMatrix pins the sparse CSR
// adjacency to the dense path-overlap relation it compresses.
func TestConflictNeighborsMatchOverlapMatrix(t *testing.T) {
	for _, nw := range []int{4, 8} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		nl := in.Edges()
		for i := 0; i < nl; i++ {
			var want []int32
			for j := i + 1; j < nl; j++ {
				if in.Path(i).Overlaps(in.Path(j)) {
					want = append(want, int32(j))
				}
			}
			got := in.confAdj[in.confStart[i]:in.confStart[i+1]]
			if len(got) != len(want) {
				t.Fatalf("edge %d: neighbors %v, want %v", i, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("edge %d: neighbors %v, want %v", i, got, want)
				}
			}
		}
	}
}

// FuzzGenomeDecode fuzzes the chromosome decoder: arbitrary byte
// strings shaped into genomes must decode to masks consistent with
// the scalar accessors, and the mask kernel must agree with the
// set-based oracle on the paper instance.
func FuzzGenomeDecode(f *testing.F) {
	in, err := DefaultInstance(8)
	if err != nil {
		f.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		f.Fatal(err)
	}
	nl, nw := in.Edges(), in.Channels()
	// Seed corpus: the paper's notation examples, the degenerate
	// all-zero/all-one genomes, and single-conflict shapes.
	if g, err := ParseGenome("10000000/00000001/00000001/00000001/10000000/10000000", nl, nw); err == nil {
		f.Add(g.Bits())
	}
	f.Add(make([]byte, nl*nw))
	all := make([]byte, nl*nw)
	for i := range all {
		all[i] = 1
	}
	f.Add(all)
	alt := make([]byte, nl*nw)
	for i := range alt {
		alt[i] = byte(i % 2)
	}
	f.Add(alt)
	if g, err := Assign(in, UniformCounts(nl, 1), FirstFit, nil); err == nil {
		f.Add(g.Bits())
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		bitsBuf := make([]byte, nl*nw)
		for i := range bitsBuf {
			if i < len(raw) {
				bitsBuf[i] = raw[i] & 1
			}
		}
		g, err := FromBits(bitsBuf, nl, nw)
		if err != nil {
			t.Fatal(err)
		}
		words := in.maskWords
		masks := make([]uint64, nl*words)
		g.MaskInto(masks, words)
		counts := g.CountsInto(make([]int, g.Edges()))
		for e := 0; e < nl; e++ {
			n := 0
			for _, w := range masks[e*words : (e+1)*words] {
				n += bits.OnesCount64(w)
			}
			if n != counts[e] {
				t.Fatalf("edge %d: mask popcount %d, Counts %d", e, n, counts[e])
			}
		}
		checkMaskAgainstReference(t, in, ev, g)
	})
}
