package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSNRBasic(t *testing.T) {
	// Signal 100 uW, noise 4 uW, P0 1 uW -> SNR 20.
	got := SNR(0.1, 0.004, 0.001)
	if !almostEqual(got, 20, 1e-9) {
		t.Errorf("SNR = %v, want 20", got)
	}
}

func TestSNRDegenerateInputs(t *testing.T) {
	if got := SNR(0, 1, 1); got != 0 {
		t.Errorf("dark link SNR = %v, want 0", got)
	}
	if got := SNR(-1, 1, 1); got != 0 {
		t.Errorf("negative signal SNR = %v, want 0", got)
	}
	if got := SNR(1, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("noiseless SNR = %v, want +Inf", got)
	}
}

func TestSNRWithPaperLaserLevels(t *testing.T) {
	p := DefaultParams()
	sig := p.LaserOnDBm.MilliWatt() // 0.1 mW
	p0 := p.LaserOffDBm.MilliWatt() // 0.001 mW
	got := SNR(sig, 0, p0)
	if !almostEqual(got, 100, 1e-9) {
		t.Errorf("crosstalk-free SNR with paper lasers = %v, want 100 (20 dB extinction)", got)
	}
}

func TestBEROOKKnownValues(t *testing.T) {
	// Eq. 9 evaluated directly.
	cases := []struct {
		snr float64
		ber float64
	}{
		{0, 0.5},
		{4, 0.5 * math.Exp(-2) * 2},
		{20, 0.5 * math.Exp(-10) * 6},
		{100, 0.5 * math.Exp(-50) * 26},
	}
	for _, c := range cases {
		if got := BEROOK(c.snr); !almostEqual(got, c.ber, 1e-15) {
			t.Errorf("BEROOK(%v) = %v, want %v", c.snr, got, c.ber)
		}
	}
}

func TestBEROOKClamped(t *testing.T) {
	if got := BEROOK(-5); got != 0.5 {
		t.Errorf("BEROOK(-5) = %v, want clamp at 0.5", got)
	}
	if got := BEROOK(1); got > 0.5 {
		t.Errorf("BEROOK(1) = %v, must never exceed 0.5", got)
	}
}

func TestBEROOKMonotoneDecreasing(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		a := 2 + math.Abs(math.Mod(aRaw, 500))
		b := a + 1e-3 + math.Abs(math.Mod(bRaw, 500))
		return BEROOK(b) <= BEROOK(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog10BERFloor(t *testing.T) {
	if got := Log10BER(0); got != -300 {
		t.Errorf("Log10BER(0) = %v, want -300 floor", got)
	}
	if got := Log10BER(1e-4); !almostEqual(got, -4, 1e-12) {
		t.Errorf("Log10BER(1e-4) = %v, want -4", got)
	}
}

func TestParamsValidateDefaults(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("Table I parameters must validate: %v", err)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	p := DefaultParams()
	p.LossOnMR = 0.5 // a gain: impossible for a passive ring
	if err := p.Validate(); err == nil {
		t.Error("positive MR loss must be rejected")
	}
	p = DefaultParams()
	p.LaserOnDBm = -40 // below the 0-level
	if err := p.Validate(); err == nil {
		t.Error("1-level below 0-level must be rejected")
	}
}

func TestThroughAndDropLoss(t *testing.T) {
	p := DefaultParams()
	if got := ThroughLossDB(p, MROff, false); got != p.LossOffMR {
		t.Errorf("OFF through loss = %v, want Lp0", got)
	}
	if got := ThroughLossDB(p, MROn, false); got != p.LossOnMR {
		t.Errorf("ON through loss = %v, want Lp1", got)
	}
	if got := ThroughLossDB(p, MROn, true); got != p.XtalkOnMR {
		t.Errorf("resonant ON through residue = %v, want Kp1", got)
	}
	if got := ThroughLossDB(p, MROff, true); got != p.LossOffMR {
		t.Errorf("resonant OFF through loss = %v, want Lp0", got)
	}
	if got := DropLossDB(p, MROn); got != p.LossOnMR {
		t.Errorf("ON drop loss = %v, want Lp1", got)
	}
	if got := DropLossDB(p, MROff); got != p.XtalkOffMR {
		t.Errorf("OFF drop leak = %v, want Kp0", got)
	}
}
