package experiments

import (
	"context"
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/figures"
	"compresso/internal/metadata"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// baselineMod turns the Compresso controller into the unoptimized
// compressed system of Fig. 4 (legacy bins, no prediction, no IR
// expansion, no repacking, no half-entry caching).
func baselineMod(c *core.Config) {
	c.Bins = compress.LegacyBins
	c.PredictOverflows = false
	c.DynamicIRExpansion = false
	c.DynamicRepacking = false
	c.MetadataCache.HalfEntry = false
}

// ExtraBreakdown splits relative extra accesses into Fig. 4's three
// categories.
type ExtraBreakdown struct {
	Split    float64
	Overflow float64
	Metadata float64
}

// Total returns the summed relative extra accesses.
func (e ExtraBreakdown) Total() float64 { return e.Split + e.Overflow + e.Metadata }

func breakdown(res sim.Result) ExtraBreakdown {
	d := float64(res.Mem.DemandAccesses())
	if d == 0 {
		return ExtraBreakdown{}
	}
	return ExtraBreakdown{
		Split:    float64(res.Mem.SplitAccesses) / d,
		Overflow: float64(res.Mem.OverflowAccesses+res.Mem.RepackAccesses+res.Mem.SpeculationMiss) / d,
		Metadata: float64(res.Mem.MetadataReads+res.Mem.MetadataWrites) / d,
	}
}

// Fig4Row compares fixed-512 B-chunk vs 4-variable-chunk allocation on
// the unoptimized system.
type Fig4Row struct {
	Bench    string
	Fixed    ExtraBreakdown
	Variable ExtraBreakdown
}

// fig4Grid is the Fig. 4 grid: on every benchmark, the unoptimized
// system with fixed 512 B chunks, then with four variable chunk sizes.
var fig4Grid = singleGrid{profs: workload.All(), specs: []runSpec{
	{sys: sim.Compresso, mod: baselineMod},
	{sys: sim.Compresso, mod: func(c *core.Config) {
		baselineMod(c)
		c.Allocation = core.VariableChunks
		c.PageSizes = []int{1, 2, 4, 8}
	}},
}}

// Fig4Data runs the unoptimized compressed system per benchmark under
// both allocation disciplines. Benchmarks are independent cells fanned
// out across Options.Jobs workers.
func Fig4Data(opt Options) []Fig4Row {
	return perProfile(opt, "fig4", fig4Grid, func(_ context.Context, prof workload.Profile, runs []sim.Result) Fig4Row {
		return Fig4Row{
			Bench:    prof.Name,
			Fixed:    breakdown(runs[0]),
			Variable: breakdown(runs[1]),
		}
	})
}

func runFig4(opt Options) (any, error) {
	rows := Fig4Data(opt)
	header(opt.Out, "Fig. 4: extra data movement of the unoptimized compressed system (relative to demand accesses)")
	tbl := stats.NewTable("bench", "fix:split", "fix:overflow", "fix:meta", "fix:total",
		"var:split", "var:overflow", "var:meta", "var:total")
	var fixTotal, varTotal []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.Fixed.Split, r.Fixed.Overflow, r.Fixed.Metadata, r.Fixed.Total(),
			r.Variable.Split, r.Variable.Overflow, r.Variable.Metadata, r.Variable.Total())
		fixTotal = append(fixTotal, r.Fixed.Total())
		varTotal = append(varTotal, r.Variable.Total())
	}
	tbl.AddRow("Average", "", "", "", stats.Mean(fixTotal), "", "", "", stats.Mean(varTotal))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: 63%% average extra accesses for the competitive baseline\n")
	return rows, nil
}

// Fig6Stages are the cumulative optimization stages of Fig. 6.
var Fig6Stages = []string{
	"baseline",
	"+alignment-friendly bins",
	"+page-overflow prediction",
	"+dynamic IR expansion",
	"+metadata cache opt",
	"+dynamic repacking (full Compresso)",
}

// Fig6Row holds one benchmark's relative extra accesses at each stage.
type Fig6Row struct {
	Bench  string
	Stages [6]float64
}

// fig6Grid is the Fig. 6 grid: on every benchmark, Compresso at each
// cumulative stage, in order.
var fig6Grid = singleGrid{profs: workload.All(), specs: []runSpec{
	{sys: sim.Compresso, mod: baselineMod},
	{sys: sim.Compresso, mod: func(c *core.Config) { baselineMod(c); c.Bins = compress.CompressoBins }},
	{sys: sim.Compresso, mod: func(c *core.Config) {
		baselineMod(c)
		c.Bins = compress.CompressoBins
		c.PredictOverflows = true
	}},
	{sys: sim.Compresso, mod: func(c *core.Config) {
		baselineMod(c)
		c.Bins = compress.CompressoBins
		c.PredictOverflows = true
		c.DynamicIRExpansion = true
	}},
	{sys: sim.Compresso, mod: func(c *core.Config) {
		baselineMod(c)
		c.Bins = compress.CompressoBins
		c.PredictOverflows = true
		c.DynamicIRExpansion = true
		c.MetadataCache = metadata.DefaultCacheConfig()
	}},
	{sys: sim.Compresso}, // full Compresso: no modifier
}}

// Fig6Data runs the optimization staircase per benchmark. Benchmarks
// are independent cells fanned out across Options.Jobs workers.
func Fig6Data(opt Options) []Fig6Row {
	return perProfile(opt, "fig6", fig6Grid, func(_ context.Context, prof workload.Profile, runs []sim.Result) Fig6Row {
		row := Fig6Row{Bench: prof.Name}
		for s, res := range runs {
			row.Stages[s] = breakdown(res).Total()
		}
		return row
	})
}

func runFig6(opt Options) (any, error) {
	rows := Fig6Data(opt)
	header(opt.Out, "Fig. 6: extra accesses as data-movement optimizations are applied cumulatively")
	cols := append([]string{"bench"}, Fig6Stages...)
	tbl := stats.NewTable(cols...)
	avgs := make([][]float64, len(Fig6Stages))
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for s, v := range r.Stages {
			cells = append(cells, v)
			avgs[s] = append(avgs[s], v)
		}
		tbl.AddRow(cells...)
	}
	cells := []interface{}{"Average"}
	var avgVals []float64
	for _, a := range avgs {
		avgVals = append(avgVals, stats.Mean(a))
		cells = append(cells, stats.Mean(a))
	}
	tbl.AddRow(cells...)
	tbl.Render(opt.Out)
	fmt.Fprintln(opt.Out, "\naverage extra accesses per optimization stage:")
	figures.Bar{Width: 44, Format: "%.3f"}.Render(opt.Out, Fig6Stages, avgVals)
	fmt.Fprintf(opt.Out, "\npaper staircase: 63%% -> 36%% -> 26%% -> 19%% -> 15%% (repacking adds 1.8%%)\n")
	return rows, nil
}

func init() {
	register("fig4", "extra data movement of the unoptimized system, fixed vs variable chunks", runFig4, fig4Grid)
	register("fig6", "cumulative effect of the data-movement optimizations", runFig6, fig6Grid)
}
