package expt

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/ring"
	"repro/internal/stats"
)

// SeedStats aggregates one comb size's exploration over several GA
// seeds — the statistically honest form of the paper's single-run
// numbers.
type SeedStats struct {
	NW        int
	BestTime  stats.Summary // k-cc
	MinEnergy stats.Summary // fJ/bit
	FrontSize stats.Summary // (time, BER) front cardinality
	Valid     stats.Summary // distinct valid genomes
}

// MultiSeed explores every comb size of cfg under `seeds` GA seeds,
// all as one run of paper-suite cells, and returns the per-NW
// distributions in cfg.NWs order.
func MultiSeed(cfg CampaignConfig, seeds int) ([]SeedStats, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("expt: need at least one seed, got %d", seeds)
	}
	camp, err := runPaper(cfg, seeds)
	if err != nil {
		return nil, err
	}
	out := make([]SeedStats, 0, len(camp.Cells)/seeds)
	for i := 0; i < len(camp.Cells); i += seeds {
		var bt, me, fs, vd []float64
		for _, cr := range camp.Cells[i : i+seeds] {
			res := cr.Result
			bt = append(bt, res.BestTimeKCC())
			if sol, ok := res.MinEnergySolution(); ok {
				me = append(me, sol.BitEnergyFJ)
			}
			fs = append(fs, float64(len(res.FrontTimeBER)))
			vd = append(vd, float64(res.DistinctValid))
		}
		out = append(out, SeedStats{
			NW:        camp.Cells[i].Cell.NW,
			BestTime:  stats.Describe(bt),
			MinEnergy: stats.Describe(me),
			FrontSize: stats.Describe(fs),
			Valid:     stats.Describe(vd),
		})
	}
	return out, nil
}

// MultiSeedReport renders the per-NW distributions.
func MultiSeedReport(cfg CampaignConfig, seeds int) (string, error) {
	all, err := MultiSeed(cfg, seeds)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-seed robustness (%d seeds per comb size)\n\n", seeds)
	rows := make([][]string, 0, len(all))
	for _, ss := range all {
		rows = append(rows, []string{
			fmt.Sprintf("%d", ss.NW),
			ss.BestTime.String(),
			ss.MinEnergy.String(),
			ss.FrontSize.String(),
			ss.Valid.String(),
		})
	}
	sb.WriteString(Table([]string{
		"NW", "best time k-cc", "min energy fJ/bit", "front size", "valid distinct",
	}, rows))
	return sb.String(), nil
}

// Sensitivity sweeps the micro-ring quality factor against the comb
// density and reports the mean BER of a fixed reference allocation
// (two wavelengths per communication, least-used assignment): the
// device-level sensitivity analysis behind the paper's fixed
// Q = 9600 / FSR = 12.8 nm choice.
func Sensitivity() (string, error) {
	qs := []float64{2400, 4800, 9600, 19200}
	nws := []int{4, 8, 12}
	var sb strings.Builder
	sb.WriteString("BER sensitivity to micro-ring quality factor (mean BER, uniform 2-wavelength reference allocation)\n\n")
	rows := make([][]string, 0, len(qs))
	for _, q := range qs {
		row := []string{fmt.Sprintf("%g", q)}
		for _, nw := range nws {
			rcfg := ring.DefaultConfig(nw)
			rcfg.Grid.Q = q
			in, err := core.NewSharedInstance(core.Config{NW: nw, Ring: &rcfg})
			if err != nil {
				return "", err
			}
			g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 2), alloc.LeastUsed, nil)
			if err != nil {
				row = append(row, "infeasible")
				continue
			}
			ev := in.Evaluate(g)
			if !ev.Valid {
				row = append(row, "invalid")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", phys.Log10BER(ev.MeanBER)))
		}
		rows = append(rows, row)
	}
	header := []string{"Q"}
	for _, nw := range nws {
		header = append(header, fmt.Sprintf("log10 BER @ NW=%d", nw))
	}
	sb.WriteString(Table(header, rows))
	sb.WriteString("\n(lower Q widens the Lorentzian: more inter-channel leakage, worse BER;\ndenser combs shrink the spacing with the same effect)\n")

	// Area cost alongside, the paper's closing remark on Fig. 6(a).
	sb.WriteString("\nOptical-layer area (default device footprints):\n")
	arows := make([][]string, 0, len(nws))
	for _, nw := range nws {
		r, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			return "", err
		}
		a := r.Area(ring.DefaultAreaModel())
		arows = append(arows, []string{
			fmt.Sprintf("%d", nw),
			fmt.Sprintf("%d", a.MRs),
			fmt.Sprintf("%d", a.Lasers),
			fmt.Sprintf("%.2f", a.WaveguideCM),
			fmt.Sprintf("%.3f", a.TotalMM2),
		})
	}
	sb.WriteString(Table([]string{"NW", "MRs", "lasers", "waveguide cm", "total mm^2"}, arows))
	return sb.String(), nil
}
