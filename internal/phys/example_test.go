package phys_test

import (
	"fmt"

	"repro/internal/phys"
)

// The crosstalk-to-BER pipeline of Eqs. 1, 8 and 9 on the paper's
// comb: an 8-channel grid over a 12.8 nm FSR, the -10 dBm laser, and
// one adjacent-channel interferer.
func Example() {
	grid := phys.DefaultGrid(8)
	par := phys.DefaultParams()

	// Adjacent-channel leakage through a micro-ring tuned one spacing
	// away (Eq. 1, in dB).
	leak := grid.CrosstalkDB(0, 1)
	fmt.Printf("adjacent leak: %.1f dB\n", float64(leak))

	// A -10 dBm signal against that leak plus the laser's 0-level
	// residue (Eq. 8), mapped to OOK BER (Eq. 9).
	signal := par.LaserOnDBm.MilliWatt()
	noise := par.LaserOnDBm.Add(leak).MilliWatt()
	snr := phys.SNR(signal, noise, par.LaserOffDBm.MilliWatt())
	fmt.Printf("SNR: %.0f\n", snr)
	fmt.Printf("log10(BER): %.1f\n", phys.Log10BER(phys.BEROOK(snr)))
	// Output:
	// adjacent leak: -26.0 dB
	// SNR: 80
	// log10(BER): -16.3
}

func ExampleLorentzian() {
	// Half of the -3 dB bandwidth: the filter passes exactly half the
	// power.
	fmt.Printf("%.2f\n", phys.Lorentzian(0.08, 0.08))
	// Output: 0.50
}
