package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// WriteSolutionsCSV emits one row per solution with the full metric
// triple and the allocation, the format external plotting tools
// consume to regenerate the paper's matplotlib figures.
func WriteSolutionsCSV(w io.Writer, nw int, kind string, sols []core.Solution) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"nw", "kind", "time_kcc", "bit_energy_fj", "mean_ber", "log10_ber", "counts", "genome"}); err != nil {
		return err
	}
	for _, s := range sols {
		counts := make([]string, len(s.Counts))
		for i, c := range s.Counts {
			counts[i] = strconv.Itoa(c)
		}
		if err := cw.Write([]string{
			strconv.Itoa(nw),
			kind,
			fmt.Sprintf("%.6f", s.TimeKCC),
			fmt.Sprintf("%.6f", s.BitEnergyFJ),
			fmt.Sprintf("%.6e", s.MeanBER),
			fmt.Sprintf("%.4f", s.Log10BER()),
			strings.Join(counts, ";"),
			s.Genome.String(),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSuiteCSV dumps every projected front (and the valid cloud for
// NW = 8, Fig. 7's data) of a suite to the writer.
func WriteSuiteCSV(w io.Writer, s *Suite) error {
	for _, nw := range s.NWs() {
		res := s.Results[nw]
		if err := WriteSolutionsCSV(w, nw, "front_time_energy", res.FrontTimeEnergy); err != nil {
			return err
		}
		if err := WriteSolutionsCSV(w, nw, "front_time_ber", res.FrontTimeBER); err != nil {
			return err
		}
		if nw == 8 {
			if err := WriteSolutionsCSV(w, nw, "valid", res.Valid); err != nil {
				return err
			}
		}
	}
	return nil
}
