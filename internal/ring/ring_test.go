package ring

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/phys"
)

func mustRing(t *testing.T, channels int) *Ring {
	t.Helper()
	r, err := New(DefaultConfig(channels))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero rows", func(c *Config) { c.Rows = 0 }},
		{"zero cols", func(c *Config) { c.Cols = 0 }},
		{"single core", func(c *Config) { c.Rows, c.Cols = 1, 1 }},
		{"zero pitch", func(c *Config) { c.TilePitchCM = 0 }},
		{"bad grid", func(c *Config) { c.Grid.Channels = 0 }},
		{"bad params", func(c *Config) { c.Params.LossOnMR = 1 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig(8)
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRingSizeAndChannels(t *testing.T) {
	r := mustRing(t, 8)
	if r.Size() != 16 {
		t.Errorf("Size = %d, want 16", r.Size())
	}
	if r.Channels() != 8 {
		t.Errorf("Channels = %d, want 8", r.Channels())
	}
}

func TestSerpentineCoords(t *testing.T) {
	// Fig. 5(b) numbering:
	//  0  1  2  3
	//  7  6  5  4
	//  8  9 10 11
	// 15 14 13 12
	// Consecutive IDs sit on adjacent tiles: every hop is one pitch,
	// straight inside a row and with two bends where the serpentine
	// turns down at a row end; only the closing hop 15 -> 0 runs three
	// pitches up the left edge.
	r := mustRing(t, 4)
	pitch := r.Config().TilePitchCM
	for i := 0; i < r.Size(); i++ {
		want := Segment{From: i, To: i + 1, LengthCM: pitch}
		switch {
		case i == 15:
			want.To, want.LengthCM, want.Bends = 0, 3*pitch, 2
		case i%4 == 3:
			want.Bends = 2
		}
		if got := r.Segment(i); got != want {
			t.Errorf("segment %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestSegmentGeometry(t *testing.T) {
	r := mustRing(t, 4)
	pitch := r.Config().TilePitchCM
	// In-row hop: one pitch, no bends.
	s01 := r.Segment(0)
	if s01.LengthCM != pitch || s01.Bends != 0 {
		t.Errorf("segment 0->1 = %+v, want straight pitch", s01)
	}
	// Row-turn hop 3->4: one pitch, two bends.
	s34 := r.Segment(3)
	if s34.LengthCM != pitch || s34.Bends != 2 {
		t.Errorf("segment 3->4 = %+v, want pitch with 2 bends", s34)
	}
	// Closing hop 15->0: three pitches up the left edge, two bends.
	s150 := r.Segment(15)
	if s150.To != 0 || s150.LengthCM != 3*pitch || s150.Bends != 2 {
		t.Errorf("segment 15->0 = %+v, want 3 pitches with 2 bends", s150)
	}
}

func TestPathBetween(t *testing.T) {
	r := mustRing(t, 4)
	p, err := r.PathBetween(1, 5)
	if err != nil {
		t.Fatalf("PathBetween: %v", err)
	}
	if p.Hops() != 4 {
		t.Errorf("hops 1->5 = %d, want 4", p.Hops())
	}
	want := []int{1, 2, 3, 4}
	for i, s := range p.Resources() {
		if s != want[i] {
			t.Errorf("segment[%d] = %d, want %d", i, s, want[i])
		}
	}
}

func TestPathWrapsAround(t *testing.T) {
	r := mustRing(t, 4)
	p, err := r.PathBetween(14, 2)
	if err != nil {
		t.Fatalf("PathBetween: %v", err)
	}
	if p.Hops() != 4 {
		t.Errorf("hops 14->2 = %d, want 4 (wrap)", p.Hops())
	}
	want := []int{14, 15, 0, 1}
	for i, s := range p.Resources() {
		if s != want[i] {
			t.Errorf("segment[%d] = %d, want %d", i, s, want[i])
		}
	}
}

func TestPathErrors(t *testing.T) {
	r := mustRing(t, 4)
	if _, err := r.PathBetween(3, 3); err == nil {
		t.Error("self path must be rejected")
	}
	if _, err := r.PathBetween(-1, 3); err == nil {
		t.Error("negative source must be rejected")
	}
	if _, err := r.PathBetween(0, 16); err == nil {
		t.Error("out-of-range destination must be rejected")
	}
}

func TestPathInteriorAndThrough(t *testing.T) {
	r := mustRing(t, 4)
	p, _ := r.PathBetween(1, 5)
	in := p.Interior()
	want := []int{2, 3, 4}
	if len(in) != len(want) {
		t.Fatalf("interior = %v, want %v", in, want)
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("interior = %v, want %v", in, want)
		}
	}
	if p.Through(1) {
		t.Error("source bank is not crossed")
	}
	for _, o := range []int{2, 3, 4, 5} {
		if !p.Through(o) {
			t.Errorf("ONI %d should be crossed", o)
		}
	}
	if p.Through(6) {
		t.Error("ONI past the destination is not crossed")
	}
	// Single-hop path has no interior.
	q, _ := r.PathBetween(0, 1)
	if len(q.Interior()) != 0 {
		t.Errorf("single hop interior = %v, want empty", q.Interior())
	}
}

func TestPathOverlaps(t *testing.T) {
	r := mustRing(t, 4)
	a, _ := r.PathBetween(1, 5)
	b, _ := r.PathBetween(4, 8)  // shares segment 4
	c, _ := r.PathBetween(5, 9)  // disjoint from a (starts where a ends)
	d, _ := r.PathBetween(0, 15) // covers almost the whole ring
	if !a.Overlaps(b) {
		t.Error("1->5 and 4->8 share segment 4")
	}
	if a.Overlaps(c) {
		t.Error("1->5 and 5->9 share no segment")
	}
	if !a.Overlaps(d) || !c.Overlaps(d) {
		t.Error("0->15 overlaps everything inside it")
	}
	if !a.Overlaps(a) {
		t.Error("a path overlaps itself")
	}
}

func TestPathLengthAndBends(t *testing.T) {
	r := mustRing(t, 4)
	pitch := r.Config().TilePitchCM
	p, _ := r.PathBetween(0, 3) // three straight in-row hops
	if got := r.LengthCM(p); !floatEq(got, 3*pitch) {
		t.Errorf("length 0->3 = %v, want %v", got, 3*pitch)
	}
	if got := r.BendCount(p); got != 0 {
		t.Errorf("bends 0->3 = %d, want 0", got)
	}
	q, _ := r.PathBetween(0, 8) // crosses two row turns
	if got := r.BendCount(q); got != 4 {
		t.Errorf("bends 0->8 = %d, want 4", got)
	}
	// Whole-ring-minus-one-hop path touches every geometry feature.
	w, _ := r.PathBetween(0, 15)
	wantLen := 14*pitch + 0 // 15 hops of one pitch... all but closing hop
	wantLen = 15 * pitch
	if got := r.LengthCM(w); !floatEq(got, wantLen) {
		t.Errorf("length 0->15 = %v, want %v", got, wantLen)
	}
}

func floatEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9
}

func TestPropagationLossScalesWithDistance(t *testing.T) {
	r := mustRing(t, 8)
	short, _ := r.PathBetween(0, 1)
	long, _ := r.PathBetween(0, 12)
	ls := r.PropagationLossDB(short)
	ll := r.PropagationLossDB(long)
	if ls >= 0 || ll >= 0 {
		t.Fatalf("losses must be negative: short %v long %v", ls, ll)
	}
	if ll >= ls {
		t.Errorf("longer path must lose more: short %v long %v", ls, ll)
	}
}

func TestSignalArrivalQuiescentNetwork(t *testing.T) {
	// With every MR OFF except the destination drop, the budget is
	// propagation + bends + (hops' worth of OFF banks) + Lp1 drop.
	r := mustRing(t, 8)
	p, _ := r.PathBetween(1, 5)
	bank := fabric.NewBank(r.Size(), r.Channels())
	bank.Set(5, 0, true) // destination receives channel 0
	got := fabric.NewBudget(r).SignalArrivalDB(p, 0, bank)

	par := r.Config().Params
	want := r.PropagationLossDB(p)
	// Interior ONIs 2,3,4: full 8-MR OFF bank walks.
	want += phys.DB(3*8) * par.LossOffMR
	// At the destination, channel 0 crosses no earlier rings; its own
	// drop costs Lp1.
	want += par.LossOnMR
	if !floatEq(float64(got), float64(want)) {
		t.Errorf("arrival = %v dB, want %v dB", got, want)
	}
}

func TestSignalArrivalPaysForEarlierOnRings(t *testing.T) {
	// A signal on a high channel crosses the ON rings of the same
	// communication's lower channels at the destination and pays Lp1
	// for each: the physical driver of the paper's energy growth with
	// wavelength count.
	r := mustRing(t, 8)
	p, _ := r.PathBetween(1, 5)
	single := fabric.NewBank(r.Size(), r.Channels())
	single.Set(5, 7, true)
	bud := fabric.NewBudget(r)
	lone := bud.SignalArrivalDB(p, 7, single)

	crowd := fabric.NewBank(r.Size(), r.Channels())
	for ch := 0; ch < 8; ch++ {
		crowd.Set(5, ch, true)
	}
	crowded := bud.SignalArrivalDB(p, 7, crowd)
	par := r.Config().Params
	wantDiff := phys.DB(7) * (par.LossOnMR - par.LossOffMR)
	if !floatEq(float64(crowded-lone), float64(wantDiff)) {
		t.Errorf("crowded-lone = %v dB, want %v dB", crowded-lone, wantDiff)
	}
}

func TestTransitLossResonantInteriorRingDropsSignal(t *testing.T) {
	// If an interior ONI has an ON ring at our channel (the conflict
	// the validity rule forbids), only the Kp1 residue survives.
	r := mustRing(t, 8)
	p, _ := r.PathBetween(1, 5)
	bank := fabric.NewBank(r.Size(), r.Channels())
	bank.Set(3, 2, true) // interior ONI 3 steals channel 2
	stolen := r.TransitLossDB(p, 2, bank)
	clean := r.TransitLossDB(p, 2, fabric.NewBank(r.Size(), r.Channels()))
	par := r.Config().Params
	wantDiff := par.XtalkOnMR - par.LossOffMR // Kp1 instead of Lp0 at one ring
	if !floatEq(float64(stolen-clean), float64(wantDiff)) {
		t.Errorf("stolen-clean = %v dB, want %v dB", stolen-clean, wantDiff)
	}
}

func TestDetectorArrivalCrosstalkBelowSignal(t *testing.T) {
	// A neighbouring channel's leak into the detector must sit far
	// below the resonant signal's arrival (by roughly the Lorentzian
	// rejection).
	r := mustRing(t, 8)
	bank := fabric.NewBank(r.Size(), r.Channels())
	bank.Set(5, 3, true)
	bank.Set(5, 4, true)
	bud := fabric.NewBudget(r)
	p, _ := r.PathBetween(1, 5)
	sig, err := bud.ArrivalAlongDB(p, 5, 3, 3, bank)
	if err != nil {
		t.Fatalf("signal arrival: %v", err)
	}
	leak, err := bud.ArrivalAlongDB(p, 5, 4, 3, bank)
	if err != nil {
		t.Fatalf("leak arrival: %v", err)
	}
	if leak >= sig {
		t.Fatalf("crosstalk (%v dB) must arrive below signal (%v dB)", leak, sig)
	}
	if sig-leak < 20 {
		t.Errorf("rejection = %v dB, want > 20 dB at one channel spacing", sig-leak)
	}
}

func TestDetectorArrivalRejectsBadEndpoints(t *testing.T) {
	r := mustRing(t, 8)
	off := fabric.NewBank(r.Size(), r.Channels())
	if _, err := r.PathBetween(3, 3); err == nil {
		t.Error("src == det must error")
	}
	if _, err := r.PathBetween(-1, 3); err == nil {
		t.Error("bad src must error")
	}
	// A detector the light never reaches is the Prefix error.
	p, _ := r.PathBetween(1, 5)
	if _, err := fabric.NewBudget(r).ArrivalAlongDB(p, 8, 0, 0, off); err == nil {
		t.Error("off-path detector must error")
	}
}

func TestBankSetAndQuery(t *testing.T) {
	b := fabric.NewBank(4, 3)
	if b.On(2, 1) {
		t.Error("new bank must be all OFF")
	}
	b.Set(2, 1, true)
	if !b.On(2, 1) {
		t.Error("Set(true) not visible")
	}
	if b.On(1, 2) || b.On(2, 0) {
		t.Error("Set must not leak to other cells")
	}
	b.Set(2, 1, false)
	if b.On(2, 1) {
		t.Error("Set(false) not visible")
	}
}

func TestAreaModel(t *testing.T) {
	r := mustRing(t, 8)
	a := r.Area(DefaultAreaModel())
	// 16 ONIs x 8 channels of each device class.
	if a.MRs != 128 || a.Lasers != 128 || a.Photodetectors != 128 {
		t.Errorf("device counts = %+v, want 128 each", a)
	}
	if a.WaveguideCM <= 0 || a.TotalMM2 <= 0 {
		t.Errorf("degenerate area: %+v", a)
	}
	// More wavelengths cost more area (the paper's closing remark on
	// Fig. 6(a)).
	r12 := mustRing(t, 12)
	a12 := r12.Area(DefaultAreaModel())
	if a12.TotalMM2 <= a.TotalMM2 {
		t.Errorf("area must grow with NW: %v vs %v mm^2", a12.TotalMM2, a.TotalMM2)
	}
}

func TestPrefix(t *testing.T) {
	r := mustRing(t, 8)
	p, err := r.PathBetween(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := p.Prefix(5)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Src != 1 || pre.Dst != 5 || pre.Hops() != 4 {
		t.Errorf("prefix = %+v", pre)
	}
	// Prefix to the destination is the whole path.
	full, err := p.Prefix(9)
	if err != nil {
		t.Fatal(err)
	}
	if full.Hops() != p.Hops() {
		t.Errorf("prefix to dst = %d hops, want %d", full.Hops(), p.Hops())
	}
	// ONIs not on the path (or the source itself) are rejected.
	if _, err := p.Prefix(12); err == nil {
		t.Error("prefix to off-path ONI must fail")
	}
	if _, err := p.Prefix(1); err == nil {
		t.Error("prefix to the source must fail")
	}
}
