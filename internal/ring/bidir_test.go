package ring

import (
	"testing"

	"repro/internal/fabric"
)

func mustBidir(t *testing.T, channels int) *Ring {
	t.Helper()
	cfg := DefaultConfig(channels)
	cfg.Bidirectional = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBidirectionalPicksShorterDirection(t *testing.T) {
	r := mustBidir(t, 8)
	// 1 -> 14 is 13 hops clockwise but only 3 counter-clockwise.
	p, err := r.PathBetween(1, 14)
	if err != nil {
		t.Fatal(err)
	}
	if Direction(p.Lane) != CCW || p.Hops() != 3 {
		t.Errorf("path 1->14 = %s %d hops, want ccw 3", Direction(p.Lane), p.Hops())
	}
	// 1 -> 4 stays clockwise.
	q, err := r.PathBetween(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if Direction(q.Lane) != CW || q.Hops() != 3 {
		t.Errorf("path 1->4 = %s %d hops, want cw 3", Direction(q.Lane), q.Hops())
	}
	// Exact halves tie clockwise.
	h, err := r.PathBetween(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if Direction(h.Lane) != CW || h.Hops() != 8 {
		t.Errorf("path 0->8 = %s %d hops, want cw 8 (tie)", Direction(h.Lane), h.Hops())
	}
}

func TestBidirectionalHalvesWorstCase(t *testing.T) {
	r := mustBidir(t, 8)
	uni := mustRing(t, 8)
	for src := 0; src < r.Size(); src++ {
		for dst := 0; dst < r.Size(); dst++ {
			if src == dst {
				continue
			}
			bp, err := r.PathBetween(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			up, err := uni.PathBetween(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if bp.Hops() > up.Hops() {
				t.Fatalf("%d->%d: bidirectional %d hops beats unidirectional %d?",
					src, dst, bp.Hops(), up.Hops())
			}
			if bp.Hops() > r.Size()/2 {
				t.Fatalf("%d->%d: %d hops exceeds half the ring", src, dst, bp.Hops())
			}
		}
	}
}

func TestCCWPathSequence(t *testing.T) {
	r := mustBidir(t, 8)
	p, err := r.DirectedPath(2, 14, CCW)
	if err != nil {
		t.Fatal(err)
	}
	wantONIs := []int{2, 1, 0, 15, 14}
	got := p.ONIs()
	if len(got) != len(wantONIs) {
		t.Fatalf("ONIs = %v, want %v", got, wantONIs)
	}
	for i := range wantONIs {
		if got[i] != wantONIs[i] {
			t.Fatalf("ONIs = %v, want %v", got, wantONIs)
		}
	}
	// Interior excludes endpoints.
	in := p.Interior()
	if len(in) != 3 || in[0] != 1 || in[2] != 15 {
		t.Errorf("interior = %v, want [1 0 15]", in)
	}
	// Resource IDs are direction-qualified (>= N).
	for _, s := range p.Resources() {
		if s < r.Size() {
			t.Errorf("CCW resource id %d collides with CW space", s)
		}
	}
}

func TestCCWRequiresBidirectionalConfig(t *testing.T) {
	uni := mustRing(t, 8)
	if _, err := uni.DirectedPath(2, 1, CCW); err == nil {
		t.Error("CCW on a unidirectional ring must fail")
	}
}

func TestCounterPropagatingPathsNeverOverlap(t *testing.T) {
	r := mustBidir(t, 8)
	cw, err := r.DirectedPath(0, 8, CW)
	if err != nil {
		t.Fatal(err)
	}
	ccw, err := r.DirectedPath(8, 0, CCW)
	if err != nil {
		t.Fatal(err)
	}
	// Same physical trace, opposite waveguides: no shared resource.
	if cw.Overlaps(ccw) || ccw.Overlaps(cw) {
		t.Error("counter-propagating paths must not overlap")
	}
	// Same-direction overlap still detected.
	ccw2, err := r.DirectedPath(10, 2, CCW)
	if err != nil {
		t.Fatal(err)
	}
	if !ccw.Overlaps(ccw2) {
		t.Error("co-propagating CCW paths sharing hops must overlap")
	}
}

func TestCCWGeometryMirrorsCW(t *testing.T) {
	r := mustBidir(t, 8)
	cw, err := r.DirectedPath(3, 7, CW)
	if err != nil {
		t.Fatal(err)
	}
	ccw, err := r.DirectedPath(7, 3, CCW)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.LengthCM(ccw), r.LengthCM(cw); got != want {
		t.Errorf("CCW length %v, CW length %v: the twin runs the same trace", got, want)
	}
	if got, want := r.BendCount(ccw), r.BendCount(cw); got != want {
		t.Errorf("CCW bends %v, CW bends %v", got, want)
	}
}

func TestPrefix(t *testing.T) {
	r := mustBidir(t, 8)
	p, err := r.DirectedPath(1, 9, CW)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := p.Prefix(5)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Src != 1 || pre.Dst != 5 || pre.Hops() != 4 || Direction(pre.Lane) != CW {
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

func TestArrivalAlongFollowsCallerPath(t *testing.T) {
	// On a bidirectional ring, an interferer travelling CCW through
	// the victim's receiver must be walked along its own (long)
	// route, not the shortest one.
	r := mustBidir(t, 8)
	long, err := r.DirectedPath(2, 10, CCW) // 2->1->0->15->...->10, 8 hops
	if err != nil {
		t.Fatal(err)
	}
	det := 14 // on the CCW route
	if !long.Through(det) {
		t.Fatal("test setup: detector not on the CCW route")
	}
	bank := fabric.NewBank(r.Size(), r.Channels())
	bank.Set(det, 3, true)
	bud := fabric.NewBudget(r)
	alongCCW, err := bud.ArrivalAlongDB(long, det, 5, 3, bank)
	if err != nil {
		t.Fatal(err)
	}
	// The shortest 2->14 route is CCW 4 hops; the interferer's prefix
	// 2->...->14 is also CCW 4 hops here, so compare against the CW
	// walk instead to show the difference.
	cwPath, err := r.DirectedPath(2, 14, CW)
	if err != nil {
		t.Fatal(err)
	}
	alongCW, err := bud.ArrivalAlongDB(cwPath, det, 5, 3, bank)
	if err != nil {
		t.Fatal(err)
	}
	if alongCCW == alongCW {
		t.Error("12-hop CW walk and 4-hop CCW walk cannot lose identically")
	}
	if alongCCW < alongCW {
		t.Error("the shorter CCW prefix must arrive stronger")
	}
}
