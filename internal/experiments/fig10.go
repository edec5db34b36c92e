package experiments

import (
	"context"
	"fmt"
	"io"

	"compresso/internal/capacity"
	"compresso/internal/figures"
	"compresso/internal/parallel"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// CompressedSystems are the three compressed systems compared against
// the uncompressed baseline throughout Figs. 10–12.
var CompressedSystems = []sim.System{sim.LCP, sim.LCPAlign, sim.Compresso}

// capSizers are CompressedSystems' capacity-model sizers, index for
// index.
var capSizers = [3]capacity.Sizer{capacity.LCP, capacity.LCPAlign, capacity.Compresso}

// dualFrac is the constrained memory fraction of the capacity half of
// Figs. 10 and 11; it is one of tab2Fracs, so the capacity cells give
// it without a further replay.
const dualFrac = 0.7

// DualRow is one dual-methodology evaluation (Figs. 10 and 11) of LCP,
// LCP+Align and Compresso: cycle-based relative performance,
// memory-capacity relative performance at 70% constrained memory, and
// their multiplicative overall.
type DualRow struct {
	CycleRel      [3]float64
	CapRel        [3]float64
	Unconstrained float64
	Overall       [3]float64
}

// setCapacity fills the capacity half from out and combines it with
// the cycle half, which must already be filled.
func (r *DualRow) setCapacity(out capacity.Outcome) {
	for i, s := range capSizers {
		r.CapRel[i] = out.RelPerf[s]
		r.Overall[i] = capacity.OverallPerformance(r.CycleRel[i], r.CapRel[i])
	}
	r.Unconstrained = out.Unconstrained
}

// labeledDual is a figure row that carries a DualRow under a label.
type labeledDual interface {
	dual() (string, DualRow)
}

// renderDualTable renders the Figs. 10a/11a table: each row's cycle and
// capacity relative performance, then their geomeans.
func renderDualTable[R labeledDual](w io.Writer, labelCol string, rows []R) {
	tbl := stats.NewTable(labelCol,
		"lcp:cyc", "align:cyc", "compresso:cyc",
		"lcp:cap", "align:cap", "compresso:cap", "unconstrained")
	var cyc, cap [3][]float64
	var unc []float64
	for _, row := range rows {
		label, r := row.dual()
		tbl.AddRow(label, r.CycleRel[0], r.CycleRel[1], r.CycleRel[2],
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
	tbl.Render(w)
}

// renderOverallTable renders the Figs. 10b/11b table: each row's
// overall performance and the unconstrained bound, then their
// geomeans, which it returns in column order.
func renderOverallTable[R labeledDual](w io.Writer, labelCol string, rows []R) []float64 {
	tbl := stats.NewTable(labelCol, "lcp", "lcp-align", "compresso", "unconstrained")
	var cols [4][]float64
	for _, row := range rows {
		label, r := row.dual()
		vals := [4]float64{r.Overall[0], r.Overall[1], r.Overall[2], r.Unconstrained}
		tbl.AddRow(label, vals[0], vals[1], vals[2], vals[3])
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
	geo := make([]float64, len(cols))
	for i := range cols {
		geo[i] = stats.Geomean(cols[i])
	}
	tbl.AddRow("Geomean", geo[0], geo[1], geo[2], geo[3])
	tbl.Render(w)
	return geo
}

// Fig10Row is one benchmark's single-core dual-methodology evaluation.
type Fig10Row struct {
	Bench string
	DualRow

	// Runs holds the raw cycle-sim results per system name (including
	// "uncompressed"), reused by the energy experiment.
	Runs map[string]sim.Result
}

func (r Fig10Row) dual() (string, DualRow) { return r.Bench, r.DualRow }

// Fig10Excluded lists the benchmarks the paper drops from Fig. 10b:
// they stall under constrained memory (incompressible and highly
// memory-sensitive).
var Fig10Excluded = map[string]bool{"mcf": true, "GemsFDTD": true, "lbm": true}

// fig10Cache memoizes the expensive dual-methodology sweep so that
// fig10a, fig10b and fig12 (which share the same runs) compute it
// once per (quick, seed) configuration. Results are deterministic;
// concurrent callers under a parallel RunAll share one computation.
var fig10Cache parallel.Memo[[2]uint64, []Fig10Row]

// fig10Grid is the Fig. 10 grid, which fig10a, fig10b and fig12 share:
// on every performance benchmark, the uncompressed baseline, then
// CompressedSystems in order.
var fig10Grid = singleGrid{
	profs: workload.PerformanceSet(),
	specs: onSystems(runSpec{}, append([]sim.System{sim.Uncompressed}, CompressedSystems...)...),
}

// Fig10Data runs the dual methodology for every performance benchmark.
// Each benchmark is an independent cell, fanned out across
// Options.Jobs workers and reassembled in suite order.
func Fig10Data(opt Options) []Fig10Row {
	rows, err := fig10Cache.Get(opt.Ctx, opt.sweepKey(), func() ([]Fig10Row, error) {
		return perProfile(opt, "fig10", fig10Grid, func(ctx context.Context, prof workload.Profile, runs []sim.Result) Fig10Row {
			row := Fig10Row{Bench: prof.Name, Runs: map[string]sim.Result{}}

			// The cycle-based simulations.
			base := runs[0]
			for _, res := range runs {
				row.Runs[res.System] = res
			}
			for i, res := range runs[1:] {
				row.CycleRel[i] = float64(base.Cycles) / float64(res.Cycles)
			}

			// Memory-capacity impact at dualFrac of the footprint.
			row.setCapacity(capacityCell(ctx, opt, prof.Name, []workload.Profile{prof}, opt.ops()*3).at(dualFrac))
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
	renderDualTable(opt.Out, "bench", rows)
	fmt.Fprintf(opt.Out, "\npaper cycle geomeans: LCP 0.938, LCP+Align 0.961, Compresso 0.998\n")
	fmt.Fprintf(opt.Out, "paper mem-cap averages @70%%: LCP 1.11, Compresso 1.29, unconstrained 1.39\n")
	return rows, nil
}

func runFig10b(opt Options) (any, error) {
	rows := Fig10Data(opt)
	header(opt.Out, "Fig. 10b: single-core overall performance (cycle x capacity), excluding mcf/GemsFDTD/lbm")
	var kept []Fig10Row
	for _, r := range rows {
		if !Fig10Excluded[r.Bench] {
			kept = append(kept, r)
		}
	}
	geo := renderOverallTable(opt.Out, "bench", kept)
	fmt.Fprintln(opt.Out, "\noverall geomeans (| marks the constrained uncompressed baseline = 1.0):")
	figures.Bar{Width: 44, Reference: 1, Format: "%.3f"}.Render(opt.Out,
		[]string{"lcp", "lcp-align", "compresso", "unconstrained"}, geo)
	fmt.Fprintf(opt.Out, "\npaper: LCP 1.03, LCP+Align 1.06, Compresso 1.28 (Compresso beats LCP by 24.2%%)\n")
	return rows, nil
}

func init() {
	register("fig10a", "single-core cycle-based + memory-capacity evaluation", runFig10a, fig10Grid)
	register("fig10b", "single-core overall performance", runFig10b, fig10Grid)
}
