package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// TestDBLinearKnownValues pins the linear transmission of relative
// ratios, taken as DBm(d).MilliWatt() (see MilliWatt).
func TestDBLinearKnownValues(t *testing.T) {
	cases := []struct {
		db  DB
		lin float64
	}{
		{0, 1},
		{10, 10},
		{-10, 0.1},
		{3, 1.9952623149688795},
		{-3, 0.5011872336272722},
		{-20, 0.01},
	}
	for _, c := range cases {
		if got := float64(DBm(c.db).MilliWatt()); !almostEqual(got, c.lin, 1e-12) {
			t.Errorf("DBm(%v).MilliWatt() = %v, want %v", c.db, got, c.lin)
		}
	}
}

func TestLinearToDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if db < -200 || db > 200 {
			return true // skip degenerate magnitudes
		}
		back := LinearToDB(float64(DBm(db).MilliWatt()))
		return almostEqual(float64(back), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmMilliWattKnownValues(t *testing.T) {
	cases := []struct {
		dbm DBm
		mw  float64
	}{
		{0, 1},
		{-10, 0.1},   // Pv: the paper's 1-level laser power
		{-30, 0.001}, // P0: the paper's 0-level residue
		{10, 10},
	}
	for _, c := range cases {
		if got := c.dbm.MilliWatt(); !almostEqual(float64(got), c.mw, 1e-12) {
			t.Errorf("DBm(%v).MilliWatt() = %v, want %v", c.dbm, got, c.mw)
		}
		if got := LinearToDB(c.mw); !almostEqual(float64(got), float64(c.dbm), 1e-9) {
			t.Errorf("LinearToDB(%v) = %v, want %v", c.mw, got, c.dbm)
		}
	}
}

func TestDBmAddIsLogDomainMultiplication(t *testing.T) {
	f := func(pRaw, lossRaw float64) bool {
		p := DBm(math.Mod(pRaw, 60)) // keep within float-friendly range
		loss := DB(-math.Abs(math.Mod(lossRaw, 60)))
		viaLog := p.Add(loss).MilliWatt()
		viaLin := p.MilliWatt() * DBm(loss).MilliWatt()
		return almostEqual(float64(viaLog), float64(viaLin), 1e-9*math.Abs(float64(viaLin))+1e-300)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroPowerToDBmIsNegInf(t *testing.T) {
	if got := LinearToDB(0); !math.IsInf(float64(got), -1) {
		t.Errorf("0 mW = %v dBm, want -Inf", got)
	}
}
