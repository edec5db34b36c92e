package experiments

import (
	"context"
	"fmt"

	"compresso/internal/capacity"
	"compresso/internal/sim"
	"compresso/internal/stats"
)

// Fig11Row is one Tab. IV mix's 4-core evaluation.
type Fig11Row struct {
	Mix           string
	CycleRel      [3]float64 // weighted speedup vs uncompressed: LCP, +Align, Compresso
	CapRel        [3]float64
	Unconstrained float64
	Overall       [3]float64

	Runs map[string]sim.MultiResult
}

// fig11Cache memoizes the mix sweep shared by fig11a and fig11b.
var fig11Cache memo[[2]uint64, []Fig11Row]

// Fig11Data runs the dual methodology for every multi-core mix. Each
// mix is an independent cell, fanned out across Options.Jobs workers
// and reassembled in Tab. IV order.
func Fig11Data(opt Options) ([]Fig11Row, error) {
	return fig11Cache.get(opt.Ctx, opt.sweepKey(), func() ([]Fig11Row, error) {
		mixes := sim.Mixes()
		return gridErr(opt, "fig11", len(mixes), func(ctx context.Context, m int) (Fig11Row, error) {
			mix := mixes[m]
			profs, err := mix.Profiles()
			if err != nil {
				return Fig11Row{}, fmt.Errorf("fig11: mix %s: %w", mix.Name, err)
			}
			row := Fig11Row{Mix: mix.Name, Runs: map[string]sim.MultiResult{}}

			mkCfg := func(sys sim.System) sim.Config {
				cfg := sim.DefaultConfig(sys)
				cfg.Ops = opt.ops() / 2
				cfg.FootprintScale = opt.scale()
				cfg.Seed = opt.seed()
				cfg.Cancel = ctx
				return cfg
			}
			base := sim.RunMix(mix.Name, profs, mkCfg(sim.Uncompressed))
			row.Runs[base.System] = base
			for i, sys := range CompressedSystems {
				res := sim.RunMix(mix.Name, profs, mkCfg(sys))
				row.Runs[res.System] = res
				row.CycleRel[i], err = res.WeightedSpeedup(base)
				if err != nil {
					return Fig11Row{}, fmt.Errorf("fig11: mix %s: %w", mix.Name, err)
				}
			}

			ccfg := capacity.DefaultConfig(0.7)
			ccfg.Ops = opt.ops()
			ccfg.FootprintScale = opt.scale()
			ccfg.Seed = opt.seed()
			out := capacity.EvaluateMix(mix.Name, profs, ccfg)
			for i, sys := range CompressedSystems {
				row.CapRel[i] = out.RelPerf[capSizer(sys)]
				row.Overall[i] = capacity.OverallPerformance(row.CycleRel[i], row.CapRel[i])
			}
			row.Unconstrained = out.Unconstrained
			return row, nil
		})
	})
}

func runFig11a(opt Options) (any, error) {
	rows, err := Fig11Data(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Fig. 11a: 4-core cycle-based and memory-capacity relative performance")
	tbl := stats.NewTable("mix",
		"lcp:cyc", "align:cyc", "compresso:cyc",
		"lcp:cap", "align:cap", "compresso:cap", "unconstrained")
	var cyc, cap [3][]float64
	var unc []float64
	for _, r := range rows {
		tbl.AddRow(r.Mix, r.CycleRel[0], r.CycleRel[1], r.CycleRel[2],
			r.CapRel[0], r.CapRel[1], r.CapRel[2], r.Unconstrained)
		for i := 0; i < 3; i++ {
			cyc[i] = append(cyc[i], r.CycleRel[i])
			cap[i] = append(cap[i], r.CapRel[i])
		}
		unc = append(unc, r.Unconstrained)
	}
	tbl.AddRow("Geomean",
		stats.Geomean(cyc[0]), stats.Geomean(cyc[1]), stats.Geomean(cyc[2]),
		stats.Geomean(cap[0]), stats.Geomean(cap[1]), stats.Geomean(cap[2]),
		stats.Geomean(unc))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper cycle averages: LCP 0.90, LCP+Align 0.95, Compresso 0.975\n")
	fmt.Fprintf(opt.Out, "paper mem-cap averages: LCP 1.97, Compresso 2.33, unconstrained 2.51\n")
	return rows, nil
}

func runFig11b(opt Options) (any, error) {
	rows, err := Fig11Data(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Fig. 11b: 4-core overall performance (cycle x capacity)")
	tbl := stats.NewTable("mix", "lcp", "lcp-align", "compresso", "unconstrained")
	var overall [3][]float64
	var unc []float64
	for _, r := range rows {
		tbl.AddRow(r.Mix, r.Overall[0], r.Overall[1], r.Overall[2], r.Unconstrained)
		for i := 0; i < 3; i++ {
			overall[i] = append(overall[i], r.Overall[i])
		}
		unc = append(unc, r.Unconstrained)
	}
	tbl.AddRow("Geomean", stats.Geomean(overall[0]), stats.Geomean(overall[1]),
		stats.Geomean(overall[2]), stats.Geomean(unc))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: LCP 1.78, LCP+Align 1.90, Compresso 2.27 (Compresso beats LCP by 27.5%%)\n")
	return rows, nil
}

func init() {
	register("fig11a", "4-core cycle-based + memory-capacity evaluation (Tab. IV mixes)", runFig11a)
	register("fig11b", "4-core overall performance", runFig11b)
}
