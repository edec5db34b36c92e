package experiments

import (
	"context"
	"fmt"

	"compresso/internal/capacity"
	"compresso/internal/figures"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// CompressedSystems are the three compressed systems compared against
// the uncompressed baseline throughout Figs. 10–12.
var CompressedSystems = []sim.System{sim.LCP, sim.LCPAlign, sim.Compresso}

// capSizer maps a sim system to its capacity-model sizer.
func capSizer(s sim.System) capacity.Sizer {
	switch s {
	case sim.LCP:
		return capacity.LCP
	case sim.LCPAlign:
		return capacity.LCPAlign
	case sim.Compresso:
		return capacity.Compresso
	}
	return capacity.Uncompressed
}

// Fig10Row is one benchmark's single-core evaluation: cycle-based
// relative performance, memory-capacity relative performance (at 70%
// constrained memory), and the multiplicative overall.
type Fig10Row struct {
	Bench         string
	CycleRel      [3]float64 // LCP, LCP+Align, Compresso
	CapRel        [3]float64
	Unconstrained float64
	Overall       [3]float64

	// Runs holds the raw cycle-sim results per system name (including
	// "uncompressed"), reused by the energy experiment.
	Runs map[string]sim.Result
}

// Fig10Excluded lists the benchmarks the paper drops from Fig. 10b:
// they stall under constrained memory (incompressible and highly
// memory-sensitive).
var Fig10Excluded = map[string]bool{"mcf": true, "GemsFDTD": true, "lbm": true}

// fig10Cache memoizes the expensive dual-methodology sweep so that
// fig10a, fig10b and fig12 (which share the same runs) compute it
// once per (quick, seed) configuration. Results are deterministic;
// concurrent callers under a parallel RunAll share one computation.
var fig10Cache memo[[2]uint64, []Fig10Row]

// Fig10Data runs the dual methodology for every performance benchmark.
// Each benchmark is an independent cell, fanned out across
// Options.Jobs workers and reassembled in suite order.
func Fig10Data(opt Options) []Fig10Row {
	rows, err := fig10Cache.get(opt.Ctx, opt.sweepKey(), func() ([]Fig10Row, error) {
		profs := workload.PerformanceSet()
		return grid(opt, "fig10", len(profs), func(ctx context.Context, i int) Fig10Row {
			prof := profs[i]
			row := Fig10Row{Bench: prof.Name, Runs: map[string]sim.Result{}}

			// Cycle-based simulations.
			base := runSingle(ctx, opt, prof, runSpec{sys: sim.Uncompressed})
			row.Runs[base.System] = base
			for i, sys := range CompressedSystems {
				res := runSingle(ctx, opt, prof, runSpec{sys: sys})
				row.Runs[res.System] = res
				row.CycleRel[i] = float64(base.Cycles) / float64(res.Cycles)
			}

			// Memory-capacity impact at 70% constrained memory.
			ccfg := capacity.DefaultConfig(0.7)
			ccfg.Ops = opt.ops() * 3
			ccfg.FootprintScale = opt.scale()
			ccfg.Seed = opt.seed()
			out := capacity.Evaluate(prof, ccfg)
			for i, sys := range CompressedSystems {
				row.CapRel[i] = out.RelPerf[capSizer(sys)]
				row.Overall[i] = capacity.OverallPerformance(row.CycleRel[i], row.CapRel[i])
			}
			row.Unconstrained = out.Unconstrained
			return row
		}), nil
	})
	if err != nil {
		// Only opt.Ctx firing while another caller computes the rows
		// ends the wait with an error: report the cancellation.
		panic(gridFatal{err: err})
	}
	return rows
}

func runFig10a(opt Options) (any, error) {
	rows := Fig10Data(opt)
	header(opt.Out, "Fig. 10a: single-core cycle-based and memory-capacity relative performance")
	tbl := stats.NewTable("bench",
		"lcp:cyc", "align:cyc", "compresso:cyc",
		"lcp:cap", "align:cap", "compresso:cap", "unconstrained")
	var cyc [3][]float64
	var cap [3][]float64
	var unc []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.CycleRel[0], r.CycleRel[1], r.CycleRel[2],
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
	fmt.Fprintf(opt.Out, "\npaper cycle geomeans: LCP 0.938, LCP+Align 0.961, Compresso 0.998\n")
	fmt.Fprintf(opt.Out, "paper mem-cap averages @70%%: LCP 1.11, Compresso 1.29, unconstrained 1.39\n")
	return rows, nil
}

func runFig10b(opt Options) (any, error) {
	rows := Fig10Data(opt)
	header(opt.Out, "Fig. 10b: single-core overall performance (cycle x capacity), excluding mcf/GemsFDTD/lbm")
	tbl := stats.NewTable("bench", "lcp", "lcp-align", "compresso", "unconstrained")
	var overall [3][]float64
	var unc []float64
	for _, r := range rows {
		if Fig10Excluded[r.Bench] {
			continue
		}
		tbl.AddRow(r.Bench, r.Overall[0], r.Overall[1], r.Overall[2], r.Unconstrained)
		for i := 0; i < 3; i++ {
			overall[i] = append(overall[i], r.Overall[i])
		}
		unc = append(unc, r.Unconstrained)
	}
	tbl.AddRow("Geomean", stats.Geomean(overall[0]), stats.Geomean(overall[1]),
		stats.Geomean(overall[2]), stats.Geomean(unc))
	tbl.Render(opt.Out)
	fmt.Fprintln(opt.Out, "\noverall geomeans (| marks the constrained uncompressed baseline = 1.0):")
	figures.Bar{Width: 44, Reference: 1, Format: "%.3f"}.Render(opt.Out,
		[]string{"lcp", "lcp-align", "compresso", "unconstrained"},
		[]float64{stats.Geomean(overall[0]), stats.Geomean(overall[1]), stats.Geomean(overall[2]), stats.Geomean(unc)})
	fmt.Fprintf(opt.Out, "\npaper: LCP 1.03, LCP+Align 1.06, Compresso 1.28 (Compresso beats LCP by 24.2%%)\n")
	return rows, nil
}

func init() {
	register("fig10a", "single-core cycle-based + memory-capacity evaluation", runFig10a)
	register("fig10b", "single-core overall performance", runFig10b)
}
