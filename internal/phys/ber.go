package phys

import "math"

// SNR computes the signal-to-noise ratio at a photodetector input
// following Eq. 8 of the paper:
//
//	SNR = Psignal / (Pnoise + P0)
//
// where Psignal is the detected power of the wanted wavelength, Pnoise
// is the summed first-order crosstalk leakage of every other
// wavelength present at the detector, and P0 is the laser's residual
// 0-level power (imperfect OOK extinction), all in linear milliwatts.
// A non-positive signal yields SNR 0 (the link is dark).
func SNR(signal, noise, p0 MilliWatt) float64 {
	if signal <= 0 {
		return 0
	}
	den := float64(noise) + float64(p0)
	if den <= 0 {
		return math.Inf(1)
	}
	return float64(signal) / den
}

// BEROOK evaluates the bit-error rate of direct-detection OOK
// modulation as a function of the linear SNR (Eq. 9):
//
//	BER = 1/2 * exp(-SNR/2) * (1 + SNR/4)
//
// The expression is monotonically decreasing for SNR >= 2 (the regime
// of any usable link) and is clamped to [0, 0.5]: SNR 0 means the
// receiver guesses, not that it is always wrong.
func BEROOK(snr float64) float64 {
	if snr < 0 {
		snr = 0
	}
	ber := 0.5 * math.Exp(-snr/2) * (1 + snr/4)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// Log10BER is a display helper: log10 of the BER with a floor that
// keeps extremely clean links (BER underflowing float64) plottable.
func Log10BER(ber float64) float64 {
	const floor = 1e-300
	if ber < floor {
		ber = floor
	}
	return math.Log10(ber)
}
