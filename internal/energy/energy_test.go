package energy

import (
	"math"
	"testing"

	"repro/internal/phys"
)

// laserMW sizes one wavelength through the exported entry point with
// the plain dB -> mW conversion.
func laserMW(m Model, lossDB phys.DB) phys.MilliWatt {
	return m.WavelengthLaserMWVia(lossDB, phys.DBm.MilliWatt)
}

// commEnergyFJ is the laser energy of one communication: its
// wavelengths' summed average power held for durationCycles.
func commEnergyFJ(m Model, lossesDB []phys.DB, durationCycles float64) float64 {
	powers := make([]phys.MilliWatt, len(lossesDB))
	for i, l := range lossesDB {
		powers[i] = laserMW(m, l)
	}
	return m.EnergyFJ(powers, durationCycles)
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	m := Default()
	m.Duty = 0
	if err := m.Validate(); err == nil {
		t.Error("zero duty must fail")
	}
	m = Default()
	m.Duty = 1.5
	if err := m.Validate(); err == nil {
		t.Error("duty > 1 must fail")
	}
	m = Default()
	m.ClockGHz = -1
	if err := m.Validate(); err == nil {
		t.Error("negative clock must fail")
	}
}

func TestLaserPowerCompensatesLoss(t *testing.T) {
	m := Default()
	// Lossless link: average power is duty * 10^(-13/10) mW.
	p0 := float64(laserMW(m, 0))
	want := 0.5 * math.Pow(10, -1.3)
	if math.Abs(p0-want) > 1e-12 {
		t.Errorf("lossless laser power = %v mW, want %v", p0, want)
	}
	// A 3 dB link needs twice the power.
	p3 := float64(laserMW(m, -3.0103))
	if math.Abs(p3/p0-2) > 1e-3 {
		t.Errorf("3 dB loss should double the power: %v vs %v", p3, p0)
	}
}

func TestLaserPowerMonotoneInLoss(t *testing.T) {
	m := Default()
	prev := phys.MilliWatt(0)
	for loss := phys.DB(0); loss >= -10; loss -= 0.5 {
		p := laserMW(m, loss)
		if p <= prev {
			t.Fatalf("power must grow with loss: %v mW at %v dB", p, loss)
		}
		prev = p
	}
}

func TestCommEnergyCalibration(t *testing.T) {
	// Single wavelength, 1.5 dB link, one bit per cycle at 10 GHz:
	// the paper-scale baseline should land near 3.5 fJ/bit.
	m := Default()
	volume := 8000.0
	duration := volume // one wavelength, 1 bit/cycle
	perBit := commEnergyFJ(m, []phys.DB{-1.5}, duration) / volume
	if perBit < 3 || perBit > 4.5 {
		t.Errorf("baseline bit energy = %v fJ/bit, want ~3.5 (paper's floor)", perBit)
	}
}

func TestMoreWavelengthsWithSameLossKeepBitEnergy(t *testing.T) {
	// Splitting a transfer over n equal-loss wavelengths leaves the
	// energy per bit unchanged: duration shrinks by n, power grows by
	// n. The increase in Fig. 6(a) comes only from the extra ON-ring
	// losses, which the allocation layer feeds through lossesDB.
	m := Default()
	volume := 8000.0
	one := commEnergyFJ(m, []phys.DB{-2}, volume) / volume
	four := commEnergyFJ(m, []phys.DB{-2, -2, -2, -2}, volume/4) / volume
	if math.Abs(one-four) > 1e-9 {
		t.Errorf("equal-loss split changed bit energy: %v vs %v", one, four)
	}
}

func TestExtraOnRingLossRaisesBitEnergy(t *testing.T) {
	// Same split, but the later wavelengths pay Lp1 per earlier ON
	// ring (the physical situation at a WDM destination): bit energy
	// must rise.
	m := Default()
	volume := 8000.0
	flat := commEnergyFJ(m, []phys.DB{-2, -2, -2, -2}, volume/4) / volume
	stair := commEnergyFJ(m, []phys.DB{-2, -2.5, -3, -3.5}, volume/4) / volume
	if stair <= flat {
		t.Errorf("staircase losses must cost more: %v vs %v fJ/bit", stair, flat)
	}
}

func TestCommEnergyScalesWithDuration(t *testing.T) {
	m := Default()
	e1 := commEnergyFJ(m, []phys.DB{-1}, 1000)
	e2 := commEnergyFJ(m, []phys.DB{-1}, 2000)
	if math.Abs(e2-2*e1) > 1e-9 {
		t.Errorf("energy must be linear in duration: %v vs %v", e1, e2)
	}
}

func TestBitEnergyDegenerate(t *testing.T) {
	m := Default()
	if got := m.EnergyFJ(nil, 1000); got != 0 {
		t.Errorf("no wavelengths cost %v fJ, want 0", got)
	}
	if got := m.EnergyFJ([]phys.MilliWatt{laserMW(m, -1)}, 0); got != 0 {
		t.Errorf("a zero-length window costs %v fJ, want 0", got)
	}
}

func TestWavelengthLaserDispatch(t *testing.T) {
	m := Default()
	fixed := laserMW(m, -2)
	if want := phys.MilliWatt(m.Duty * float64((m.RxTargetDBm + 2).MilliWatt())); fixed != want {
		t.Errorf("%v mW, want the fixed receive-power %v mW", fixed, want)
	}
}

func TestEnergyFJMatchesCommEnergy(t *testing.T) {
	// 1 mW held for 1 ns is 1 pJ: three wavelengths summing to 1 mW
	// over 4000 cycles at 10 GHz (400 ns).
	m := Default()
	got := m.EnergyFJ([]phys.MilliWatt{0.5, 0.25, 0.25}, 4000)
	if want := 1.0 * 400 * 1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("EnergyFJ = %v fJ, want %v", got, want)
	}
}
