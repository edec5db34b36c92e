package experiments

import (
	"context"
	"fmt"

	"compresso/internal/parallel"
	"compresso/internal/sim"
)

// Fig11Row is one Tab. IV mix's 4-core dual-methodology evaluation;
// its cycle half is the weighted speedup vs uncompressed.
type Fig11Row struct {
	Mix string
	DualRow

	Runs map[string]sim.MultiResult
}

func (r Fig11Row) dual() (string, DualRow) { return r.Mix, r.DualRow }

// fig11Cache memoizes the mix sweep shared by fig11a and fig11b.
var fig11Cache parallel.Memo[[2]uint64, []Fig11Row]

// Fig11Data runs the dual methodology for every multi-core mix. Each
// mix is an independent cell, fanned out across Options.Jobs workers
// and reassembled in Tab. IV order.
func Fig11Data(opt Options) ([]Fig11Row, error) {
	return fig11Cache.Get(opt.Ctx, opt.sweepKey(), func() ([]Fig11Row, error) {
		mixes := sim.Mixes()
		return gridErr(opt, "fig11", len(mixes), func(ctx context.Context, m int) (Fig11Row, error) {
			mix := mixes[m]
			profs := mix.Profiles()
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
				rel, err := res.WeightedSpeedup(base)
				if err != nil {
					return Fig11Row{}, fmt.Errorf("fig11: mix %s: %w", mix.Name, err)
				}
				row.CycleRel[i] = rel
			}

			row.setCapacity(capacityCell(ctx, opt, mix.Name, profs, opt.ops()).at(dualFrac))
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
	renderDualTable(opt.Out, "mix", rows)
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
	renderOverallTable(opt.Out, "mix", rows)
	fmt.Fprintf(opt.Out, "\npaper: LCP 1.78, LCP+Align 1.90, Compresso 2.27 (Compresso beats LCP by 27.5%%)\n")
	return rows, nil
}

func init() {
	register("fig11a", "4-core cycle-based + memory-capacity evaluation (Tab. IV mixes)", runFig11a)
	register("fig11b", "4-core overall performance", runFig11b)
}
