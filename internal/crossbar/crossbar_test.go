package crossbar

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/phys"
)

// smallConfig is the hand-checkable 4-core crossbar used by the
// closed-form oracle tests: every loss term is small enough to verify
// on paper.
func smallConfig(channels int) Config {
	cfg := DefaultConfig(channels)
	cfg.Cores = 4
	return cfg
}

// TestTransitLossOracle pins the crossbar loss model against an
// independent closed-form hand computation for the 4-core, 4-channel,
// 2-layer instance with the default device parameters:
//
//	L(s,d) = (4-s) * 0.2 cm * (-0.274 dB/cm)     propagation
//	       + (3-s) * 4 * (-0.005 dB)             OFF-modulator pass-bys
//	       + floor((3-d)/2) * (-0.04 dB)         in-plane crossings
//	       + 2 * (d mod 2) * (-0.1 dB)           vertical couplers
//
// The worst case is s=0 -> d=1 (longest travel, a crossing AND a
// layer change): -0.2192 - 0.06 - 0.04 - 0.2 = -0.5192 dB.
func TestTransitLossOracle(t *testing.T) {
	x, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	closedForm := func(s, d int) float64 {
		return float64(4-s)*0.2*(-0.274) +
			float64((3-s)*4)*(-0.005) +
			float64((3-d)/2)*(-0.04) +
			float64(2*(d%2))*(-0.1)
	}
	worst := 0.0
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			p, err := x.PathBetween(s, d)
			if err != nil {
				t.Fatal(err)
			}
			got := float64(x.TransitLossDB(p, 0, fabric.NewBank(x.Size(), x.Channels())))
			want := closedForm(s, d)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("TransitLossDB(%d->%d) = %.6f dB, closed form %.6f dB", s, d, got, want)
			}
			if got < worst {
				worst = got
			}
		}
	}
	if math.Abs(worst-(-0.5192)) > 1e-12 {
		t.Errorf("worst-case transit loss %.6f dB, hand computation says -0.5192 dB", worst)
	}
}

// TestTransitLossLayerScaling pins the multi-layer advantage: going
// from 1 to 2 layers strictly reduces in-plane crossings for at least
// one destination, and a transit never gets cheaper by removing
// layers when the destination needs a layer change.
func TestTransitLossLayerScaling(t *testing.T) {
	mk := func(layers int) *Crossbar {
		cfg := smallConfig(4)
		cfg.Layers = layers
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	single, double := mk(1), mk(2)
	// Destination 0 on one layer crosses all 3 higher waveguides; on
	// two layers only waveguide 2 shares its layer.
	if got := single.crossings(0); got != 3 {
		t.Errorf("1-layer crossings(0) = %d, want 3", got)
	}
	if got := double.crossings(0); got != 1 {
		t.Errorf("2-layer crossings(0) = %d, want 1", got)
	}
	// On a single layer no path pays coupler loss.
	for d := 0; d < 4; d++ {
		if got := single.layerOf(d); got != 0 {
			t.Errorf("1-layer layerOf(%d) = %d, want 0", d, got)
		}
	}
}

// TestPathStructure pins the MWSR conflict structure: paths overlap
// exactly when they target the same destination, independently of the
// sources.
func TestPathStructure(t *testing.T) {
	x, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	path := func(s, d int) fabric.Path {
		p, err := x.PathBetween(s, d)
		if err != nil {
			t.Fatalf("PathBetween(%d,%d): %v", s, d, err)
		}
		return p
	}
	for s1 := 0; s1 < 4; s1++ {
		for d1 := 0; d1 < 4; d1++ {
			if s1 == d1 {
				continue
			}
			for s2 := 0; s2 < 4; s2++ {
				for d2 := 0; d2 < 4; d2++ {
					if s2 == d2 {
						continue
					}
					got := path(s1, d1).Overlaps(path(s2, d2))
					want := d1 == d2
					if got != want {
						t.Errorf("Overlaps(%d->%d, %d->%d) = %v, want %v", s1, d1, s2, d2, got, want)
					}
				}
			}
		}
	}
	// Path geometry: hops count N - src, the ONI list is {src, dst}
	// (no interior receiver banks).
	p := path(1, 2)
	if p.Hops() != 3 {
		t.Errorf("path 1->2 hops = %d, want 3", p.Hops())
	}
	if len(p.Interior()) != 0 {
		t.Errorf("crossbar path has interior ONIs %v", p.Interior())
	}
	if got := p.ONIs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("path ONIs = %v, want [1 2]", got)
	}
	// Self paths never enter the optical layer.
	self := fabric.SelfPath(2)
	if x.TransitLossDB(self, 0, fabric.NewBank(x.Size(), x.Channels())) != 0 {
		t.Error("self path accrues transit loss")
	}
}

// TestSignalArrivalComposition checks that fabric.Budget composes the
// dynamic receiver-bank terms on top of the crossbar's static transit:
// all-off bank pays the Kp0 off-state walk before the detector ring,
// and turning the detector ring ON swaps the final drop term.
func TestSignalArrivalComposition(t *testing.T) {
	x, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	par := x.Params()
	p, err := x.PathBetween(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bud := fabric.NewBudget(x)
	ch := 2
	off := fabric.NewBank(x.Size(), x.Channels())
	transit := x.TransitLossDB(p, ch, off)

	// All-off: walk rings 0..ch-1 in OFF state, then the off-state
	// drop into the detuned detector ring.
	wantOff := transit +
		phys.DB(ch)*par.LossOffMR +
		phys.DropLossDB(par, phys.MROff)
	if got := bud.SignalArrivalDB(p, ch, off); math.Abs(float64(got-wantOff)) > 1e-12 {
		t.Errorf("all-off arrival %.6f, want %.6f", got, wantOff)
	}

	// Detector ring ON: same walk, resonant drop at the end.
	bank := fabric.NewBank(4, 4)
	bank.Set(1, ch, true)
	wantOn := transit +
		phys.DB(ch)*par.LossOffMR +
		phys.DropLossDB(par, phys.MROn)
	if got := bud.SignalArrivalDB(p, ch, bank); math.Abs(float64(got-wantOn)) > 1e-12 {
		t.Errorf("detector-on arrival %.6f, want %.6f", got, wantOn)
	}

	// The crosstalk leak of a neighbouring channel uses the
	// Lorentzian grid term.
	leak, err := bud.ArrivalAlongDB(p, 1, ch, ch+1, off)
	if err != nil {
		t.Fatal(err)
	}
	wantLeak := transit +
		phys.DB(ch+1)*par.LossOffMR +
		x.Grid().CrosstalkDB(ch+1, ch)
	if math.Abs(float64(leak-wantLeak)) > 1e-12 {
		t.Errorf("crosstalk arrival %.6f, want %.6f", leak, wantLeak)
	}

	// A detector the path never reaches is the "not downstream" error
	// — the crosstalk scans treat it as no coupling.
	if _, err := bud.ArrivalAlongDB(p, 3, ch, ch, off); err == nil {
		t.Error("ArrivalAlongDB to an off-path detector must error")
	}
}

// TestConfigValidation exercises every New rejection.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"one core", func(c *Config) { c.Cores = 1 }, "at least 2 cores"},
		{"zero pitch", func(c *Config) { c.TilePitchCM = 0 }, "tile pitch"},
		{"zero layers", func(c *Config) { c.Layers = 0 }, "at least 1 layer"},
		{"positive crossing", func(c *Config) { c.CrossingDB = 0.1 }, "must be <= 0"},
		{"positive coupler", func(c *Config) { c.CouplerDB = 0.1 }, "must be <= 0"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(4)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(DefaultConfig(4)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	x, _ := New(DefaultConfig(4))
	if _, err := x.PathBetween(0, 0); err == nil {
		t.Error("degenerate path accepted")
	}
	if _, err := x.PathBetween(-1, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if x.ResourceName() != "hop" {
		t.Errorf("resource name = %s", x.ResourceName())
	}
}
