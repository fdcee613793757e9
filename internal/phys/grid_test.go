package phys

import (
	"math"
	"testing"
)

func TestDefaultGridMatchesPaper(t *testing.T) {
	g := DefaultGrid(8)
	if g.FSRNM != 12.8 {
		t.Errorf("FSR = %v, want 12.8 nm", g.FSRNM)
	}
	if g.Q != 9600 {
		t.Errorf("Q = %v, want 9600", g.Q)
	}
	if g.Channels != 8 {
		t.Errorf("Channels = %v, want 8", g.Channels)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("default grid invalid: %v", err)
	}
}

func TestGridSpacing(t *testing.T) {
	for _, nw := range []int{4, 8, 12} {
		g := DefaultGrid(nw)
		want := 12.8 / float64(nw)
		if got := g.SpacingNM(); !almostEqual(got, want, 1e-12) {
			t.Errorf("NW=%d spacing = %v, want %v", nw, got, want)
		}
	}
}

func TestGridDelta(t *testing.T) {
	g := DefaultGrid(8)
	want := 1550.0 / (2 * 9600)
	if got := g.DeltaNM(); !almostEqual(got, want, 1e-12) {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

func TestGridWavelengthsSymmetricAroundCenter(t *testing.T) {
	g := DefaultGrid(8)
	lo := g.WavelengthNM(0)
	hi := g.WavelengthNM(g.Channels - 1)
	if !almostEqual(lo+hi, 2*g.CenterNM, 1e-9) {
		t.Errorf("first+last = %v, want %v", lo+hi, 2*g.CenterNM)
	}
	// Consecutive channels are exactly one spacing apart.
	for ch := 1; ch < g.Channels; ch++ {
		d := g.WavelengthNM(ch) - g.WavelengthNM(ch-1)
		if !almostEqual(d, g.SpacingNM(), 1e-9) {
			t.Errorf("spacing between ch %d and %d = %v, want %v", ch-1, ch, d, g.SpacingNM())
		}
	}
}

func TestGridDistance(t *testing.T) {
	g := DefaultGrid(4)
	if got := g.DistanceNM(0, 0); got != 0 {
		t.Errorf("distance(0,0) = %v, want 0", got)
	}
	if got, want := g.DistanceNM(0, 3), 3*g.SpacingNM(); !almostEqual(got, want, 1e-12) {
		t.Errorf("distance(0,3) = %v, want %v", got, want)
	}
	if g.DistanceNM(1, 3) != g.DistanceNM(3, 1) {
		t.Error("distance must be symmetric")
	}
}

func TestCrosstalkDBProperties(t *testing.T) {
	g := DefaultGrid(12)
	// Resonant channel drops fully: 0 dB.
	if got := g.CrosstalkDB(5, 5); !almostEqual(float64(got), 0, 1e-12) {
		t.Errorf("resonant crosstalk = %v dB, want 0", got)
	}
	// Leakage decreases monotonically with channel distance.
	prev := 1.0
	for d := 1; d < g.Channels; d++ {
		leak := float64(DBm(g.CrosstalkDB(0, d)).MilliWatt())
		if leak >= prev {
			t.Errorf("leak at distance %d = %v, not below %v", d, leak, prev)
		}
		prev = leak
	}
	// Symmetric in its arguments.
	if g.CrosstalkDB(2, 7) != g.CrosstalkDB(7, 2) {
		t.Error("crosstalk must be symmetric")
	}
}

func TestCrosstalkAdjacentChannelMagnitude(t *testing.T) {
	// Sanity anchor: with the paper's comb at NW=8 (CS = 1.6 nm,
	// delta ~ 0.0807 nm) adjacent-channel leakage is about -26 dB.
	g := DefaultGrid(8)
	got := float64(g.CrosstalkDB(0, 1))
	if got > -24 || got < -28 {
		t.Errorf("adjacent crosstalk = %v dB, want about -26 dB", got)
	}
}

func TestDenserCombLeaksMore(t *testing.T) {
	// Fixed FSR: more channels -> smaller spacing -> worse adjacent
	// crosstalk. This is the physical driver of the paper's
	// time/BER trade-off.
	leak4 := DefaultGrid(4).CrosstalkDB(0, 1)
	leak8 := DefaultGrid(8).CrosstalkDB(0, 1)
	leak12 := DefaultGrid(12).CrosstalkDB(0, 1)
	if !(leak12 > leak8 && leak8 > leak4) {
		t.Errorf("adjacent leak should grow with density: 4->%v 8->%v 12->%v", leak4, leak8, leak12)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Grid
	}{
		{"zero channels", Grid{CenterNM: 1550, FSRNM: 12.8, Q: 9600, Channels: 0}},
		{"negative FSR", Grid{CenterNM: 1550, FSRNM: -1, Q: 9600, Channels: 4}},
		{"zero centre", Grid{CenterNM: 0, FSRNM: 12.8, Q: 9600, Channels: 4}},
		{"zero Q", Grid{CenterNM: 1550, FSRNM: 12.8, Q: 0, Channels: 4}},
		{"FSR exceeds carrier", Grid{CenterNM: 10, FSRNM: 12.8, Q: 9600, Channels: 4}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLorentzianProperties(t *testing.T) {
	const delta = 0.0807
	if got := Lorentzian(0, delta); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Lorentzian(0) = %v, want 1", got)
	}
	// Half power at one half-width.
	if got := Lorentzian(delta, delta); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Lorentzian(delta) = %v, want 0.5", got)
	}
	// Monotone decreasing in distance, even under sign flips.
	if Lorentzian(1, delta) <= Lorentzian(2, delta) {
		t.Error("Lorentzian must decrease with distance")
	}
	if Lorentzian(1.5, delta) != Lorentzian(-1.5, delta) {
		t.Error("Lorentzian must be even in distance")
	}
	// Quadratic far-field rolloff: doubling the distance quarters the leak.
	far := Lorentzian(4, delta) / Lorentzian(8, delta)
	if math.Abs(far-4) > 0.01 {
		t.Errorf("far-field rolloff ratio = %v, want ~4", far)
	}
}
