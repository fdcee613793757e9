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
		if got := c.db.Linear(); !almostEqual(got, c.lin, 1e-12) {
			t.Errorf("DB(%v).Linear() = %v, want %v", c.db, got, c.lin)
		}
	}
}

func TestLinearToDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if db < -200 || db > 200 {
			return true // skip degenerate magnitudes
		}
		back := LinearToDB(DB(db).Linear())
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
		if got := MilliWatt(c.mw).DBm(); !almostEqual(float64(got), float64(c.dbm), 1e-9) {
			t.Errorf("MilliWatt(%v).DBm() = %v, want %v", c.mw, got, c.dbm)
		}
	}
}

func TestDBmAddIsLogDomainMultiplication(t *testing.T) {
	f := func(pRaw, lossRaw float64) bool {
		p := DBm(math.Mod(pRaw, 60)) // keep within float-friendly range
		loss := DB(-math.Abs(math.Mod(lossRaw, 60)))
		viaLog := p.Add(loss).MilliWatt()
		viaLin := MilliWatt(float64(p.MilliWatt()) * loss.Linear())
		return almostEqual(float64(viaLog), float64(viaLin), 1e-9*math.Abs(float64(viaLin))+1e-300)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroPowerToDBmIsNegInf(t *testing.T) {
	if got := MilliWatt(0).DBm(); !math.IsInf(float64(got), -1) {
		t.Errorf("0 mW = %v dBm, want -Inf", got)
	}
}

// TestDBLinearIsDBmMilliWatt pins that the relative and the absolute
// conversion are one function, bit for bit, so a single memo of
// DBm.MilliWatt serves DB.Linear too (the evaluation kernel's laser
// sizing relies on it).
func TestDBLinearIsDBmMilliWatt(t *testing.T) {
	same := func(x float64) bool {
		a := math.Float64bits(DB(x).Linear())
		b := math.Float64bits(float64(DBm(x).MilliWatt()))
		return a == b
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -400, 400, -13, -0.5} {
		if !same(x) {
			t.Errorf("DB(%v).Linear() and DBm(%v).MilliWatt() differ in bits", x, x)
		}
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
}
