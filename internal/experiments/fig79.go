package experiments

import (
	"context"
	"fmt"

	"compresso/internal/core"
	"compresso/internal/cpoints"
	"compresso/internal/figures"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// Fig7Row is one benchmark's compression ratio with and without
// dynamic repacking (controller-measured, end of run).
type Fig7Row struct {
	Bench      string
	WithRepack float64
	NoRepack   float64
	RelativeNR float64 // NoRepack / WithRepack (the Fig. 7 bars)
}

// fig7Grid is the Fig. 7 grid: on every benchmark, Compresso with
// repacking, then without.
var fig7Grid = singleGrid{profs: workload.All(), specs: []runSpec{
	{sys: sim.Compresso},
	{sys: sim.Compresso, mod: func(c *core.Config) { c.DynamicRepacking = false }},
}}

// Fig7Data runs Compresso with repacking on and off. Benchmarks are
// independent cells fanned out across Options.Jobs workers.
func Fig7Data(opt Options) []Fig7Row {
	return perProfile(opt, "fig7", fig7Grid, func(_ context.Context, prof workload.Profile, runs []sim.Result) Fig7Row {
		with, without := runs[0], runs[1]

		return Fig7Row{
			Bench:      prof.Name,
			WithRepack: with.Ratio,
			NoRepack:   without.Ratio,
			RelativeNR: without.Ratio / with.Ratio,
		}
	})
}

func runFig7(opt Options) (any, error) {
	rows := Fig7Data(opt)
	header(opt.Out, "Fig. 7: compression-ratio loss without dynamic repacking")
	tbl := stats.NewTable("bench", "with-repack", "no-repack", "relative")
	var rel []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.WithRepack, r.NoRepack, r.RelativeNR)
		rel = append(rel, r.RelativeNR)
	}
	tbl.AddRow("Average", "", "", stats.Mean(rel))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: ~24%% of storage benefits squandered without repacking\n")
	return rows, nil
}

// Fig9Series is one benchmark's per-interval compressibility together
// with the SimPoint and CompressPoint whole-run estimates.
type Fig9Series struct {
	Bench        string
	Ratios       []float64
	TrueMean     float64
	SimPointEst  float64
	CompPointEst float64
	SimPointErr  float64
	CompPointErr float64
}

// fig9Profiles are the paper's two example benchmarks, both with
// pronounced compressibility phases.
var fig9Profiles = mustProfiles("GemsFDTD", "astar")

// Fig9Data profiles fig9Profiles and compares the representativeness
// of SimPoints vs CompressPoints.
func Fig9Data(opt Options) []Fig9Series {
	intervals := 12
	opsPer := opt.ops() / 4
	return grid(opt, "fig9", len(fig9Profiles), func(_ context.Context, i int) Fig9Series {
		prof := workload.Scale(fig9Profiles[i], opt.scale())
		// Concentrate writes so the phases move the whole image, like
		// the paper's full-footprint dumps.
		prof.HotFraction = 0.9
		prof.HotProb = 0.9
		ivs := cpoints.Profile(prof, opt.seed(), intervals, opsPer)

		simF := make([][]float64, len(ivs))
		compF := make([][]float64, len(ivs))
		for i, iv := range ivs {
			simF[i] = cpoints.SimPointFeatures(iv)
			compF[i] = cpoints.CompressPointFeatures(iv)
		}
		sa := cpoints.KMeans(simF, 3, opt.seed())
		sp, sw := cpoints.Pick(simF, sa, 3)
		ca := cpoints.KMeans(compF, 3, opt.seed())
		cp, cw := cpoints.Pick(compF, ca, 3)

		s := Fig9Series{Bench: prof.Name, TrueMean: cpoints.TrueMeanRatio(ivs)}
		for _, iv := range ivs {
			s.Ratios = append(s.Ratios, iv.Ratio)
		}
		s.SimPointEst = cpoints.WeightedRatio(ivs, sp, sw)
		s.CompPointEst = cpoints.WeightedRatio(ivs, cp, cw)
		s.SimPointErr = abs(s.SimPointEst - s.TrueMean)
		s.CompPointErr = abs(s.CompPointEst - s.TrueMean)
		return s
	})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func runFig9(opt Options) (any, error) {
	series := Fig9Data(opt)
	header(opt.Out, "Fig. 9: SimPoint vs CompressPoint compressibility representativeness")
	for _, s := range series {
		fmt.Fprintf(opt.Out, "\n%s per-interval compression ratio:  %s\n  ", s.Bench, figures.Spark(s.Ratios))
		for _, r := range s.Ratios {
			fmt.Fprintf(opt.Out, "%.2f ", r)
		}
		fmt.Fprintf(opt.Out, "\n  true mean %.3f | simpoint estimate %.3f (err %.3f) | compresspoint estimate %.3f (err %.3f)\n",
			s.TrueMean, s.SimPointEst, s.SimPointErr, s.CompPointEst, s.CompPointErr)
	}
	fmt.Fprintf(opt.Out, "\npaper: SimPoints misrepresent compressibility on phased benchmarks; CompressPoints track it\n")
	return series, nil
}

func init() {
	register("fig7", "compression-ratio loss without dynamic repacking", runFig7, fig7Grid)
	register("fig9", "SimPoint vs CompressPoint representativeness (GemsFDTD, astar)", runFig9)
}
