package experiments

import (
	"context"
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// AbBinsRow quantifies the §IV-A1 trade-offs for one benchmark: more
// line bins or page sizes compress better but move more data.
type AbBinsRow struct {
	Bench string

	// Line-bin ablation (8 vs 4 bins, both alignment-oriented).
	Ratio8Bins, Ratio4Bins       float64
	Overflows8Bins, Overflow4Bin uint64

	// Page-size ablation (8 vs 4 page sizes).
	Ratio8Pages, Ratio4Pages   float64
	Resize8Pages, Resize4Pages uint64
}

// abBinsGrid is the ab-bins grid: on every benchmark, 8 bins, the
// default config (both the 4-bin and the 8-page-size column, so one run
// feeds both) and 4 page sizes.
var abBinsGrid = singleGrid{profs: workload.All(), specs: []runSpec{
	{sys: sim.Compresso, mod: func(c *core.Config) { c.Bins = compress.EightBins }},
	{sys: sim.Compresso},
	{sys: sim.Compresso, mod: func(c *core.Config) {
		c.PageSizes = []int{2, 4, 6, 8}
		c.DynamicIRExpansion = false // needs +1-chunk growth
	}},
}}

// AbBinsData runs the bin-count and page-size-count ablations.
// Benchmarks are independent cells fanned out across Options.Jobs
// workers.
func AbBinsData(opt Options) []AbBinsRow {
	return perProfile(opt, "ab-bins", abBinsGrid, func(_ context.Context, prof workload.Profile, runs []sim.Result) AbBinsRow {
		eightBins, fourBins, fourPages := runs[0], runs[1], runs[2]
		eightPages := fourBins
		return AbBinsRow{
			Bench:          prof.Name,
			Ratio8Bins:     eightBins.Ratio,
			Ratio4Bins:     fourBins.Ratio,
			Overflows8Bins: eightBins.Mem.LineOverflows,
			Overflow4Bin:   fourBins.Mem.LineOverflows,
			Ratio8Pages:    eightPages.Ratio,
			Ratio4Pages:    fourPages.Ratio,
			Resize8Pages:   eightPages.Mem.OverflowAccesses + eightPages.Mem.RepackAccesses,
			Resize4Pages:   fourPages.Mem.OverflowAccesses + fourPages.Mem.RepackAccesses,
		}
	})
}

func runAbBins(opt Options) (any, error) {
	rows := AbBinsData(opt)
	header(opt.Out, "Ablation §IV-A1: number of line bins and page sizes")
	tbl := stats.NewTable("bench", "ratio:8bins", "ratio:4bins", "ovf:8bins", "ovf:4bins",
		"ratio:8pg", "ratio:4pg", "resize:8pg", "resize:4pg")
	var r8, r4, p8, p4 []float64
	var o8, o4 uint64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.Ratio8Bins, r.Ratio4Bins, r.Overflows8Bins, r.Overflow4Bin,
			r.Ratio8Pages, r.Ratio4Pages, r.Resize8Pages, r.Resize4Pages)
		r8 = append(r8, r.Ratio8Bins)
		r4 = append(r4, r.Ratio4Bins)
		p8 = append(p8, r.Ratio8Pages)
		p4 = append(p4, r.Ratio4Pages)
		o8 += r.Overflows8Bins
		o4 += r.Overflow4Bin
	}
	tbl.AddRow("Average", stats.Mean(r8), stats.Mean(r4), o8, o4, stats.Mean(p8), stats.Mean(p4), "", "")
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: 8 line bins 1.82 vs 4 bins 1.59 ratio, +17.5%% overflows; 8 page sizes 1.85 vs 4 sizes 1.59\n")
	return rows, nil
}

// AbAlignRow quantifies §IV-B1: alignment-friendly line sizes trade
// 0.25% compression for a 30.9% -> 3.2% drop in split accesses.
type AbAlignRow struct {
	Bench        string
	SplitLegacy  float64 // split accesses per demand access
	SplitAligned float64
	RatioLegacy  float64
	RatioAligned float64
}

// abAlignGrid is the ab-align grid: on every benchmark, the
// unoptimized system with legacy bins, then with alignment-friendly
// bins.
var abAlignGrid = singleGrid{profs: workload.All(), specs: []runSpec{
	{sys: sim.Compresso, mod: func(c *core.Config) { baselineMod(c); c.Bins = compress.LegacyBins }},
	{sys: sim.Compresso, mod: func(c *core.Config) { baselineMod(c); c.Bins = compress.CompressoBins }},
}}

// AbAlignData runs the alignment ablation on the otherwise-unoptimized
// system (isolating the bin effect, as the paper's search did).
// Benchmarks are independent cells fanned out across Options.Jobs
// workers.
func AbAlignData(opt Options) []AbAlignRow {
	return perProfile(opt, "ab-align", abAlignGrid, func(_ context.Context, prof workload.Profile, runs []sim.Result) AbAlignRow {
		legacy, aligned := runs[0], runs[1]
		return AbAlignRow{
			Bench:        prof.Name,
			SplitLegacy:  float64(legacy.Mem.SplitAccesses) / float64(legacy.Mem.DemandAccesses()),
			SplitAligned: float64(aligned.Mem.SplitAccesses) / float64(aligned.Mem.DemandAccesses()),
			RatioLegacy:  legacy.Ratio,
			RatioAligned: aligned.Ratio,
		}
	})
}

func runAbAlign(opt Options) (any, error) {
	rows := AbAlignData(opt)
	header(opt.Out, "Ablation §IV-B1: alignment-friendly line sizes (0/8/32/64 vs 0/22/44/64)")
	tbl := stats.NewTable("bench", "split:legacy", "split:aligned", "ratio:legacy", "ratio:aligned")
	var sl, sa, rl, ra []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.SplitLegacy, r.SplitAligned, r.RatioLegacy, r.RatioAligned)
		sl = append(sl, r.SplitLegacy)
		sa = append(sa, r.SplitAligned)
		rl = append(rl, r.RatioLegacy)
		ra = append(ra, r.RatioAligned)
	}
	tbl.AddRow("Average", stats.Mean(sl), stats.Mean(sa), stats.Mean(rl), stats.Mean(ra))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: split lines 30.9%% -> 3.2%%, compression loss just 0.25%%\n")
	return rows, nil
}

// BPCVariantRow compares Compresso's best-of-transform BPC against the
// always-transform baseline (§II-A's "13% more memory saved").
type BPCVariantRow struct {
	Bench        string
	BestOfBytes  int64
	BaselineByte int64
	Saving       float64 // fraction of baseline bytes saved
}

// BPCVariantsData measures raw compressed bytes over each image.
// Benchmarks are independent cells; each owns its compressors so
// cells share nothing.
func BPCVariantsData(opt Options) []BPCVariantRow {
	profs := workload.All()
	return grid(opt, "bpc-variants", len(profs), func(_ context.Context, i int) BPCVariantRow {
		prof := workload.Scale(profs[i], opt.scale())
		best := compress.BPC{}
		baseline := compress.BPC{DisableBestOf: true}
		img := workload.NewImage(prof, opt.seed())
		var bb, bl int64
		for p := uint64(0); p < uint64(prof.FootprintPages); p++ {
			for _, line := range img.Page(p) {
				bb += int64(compress.SizeOnly(best, line))
				bl += int64(compress.SizeOnly(baseline, line))
			}
		}
		saving := 0.0
		if bl > 0 {
			saving = 1 - float64(bb)/float64(bl)
		}
		return BPCVariantRow{
			Bench: prof.Name, BestOfBytes: bb, BaselineByte: bl, Saving: saving,
		}
	})
}

func runBPCVariants(opt Options) (any, error) {
	rows := BPCVariantsData(opt)
	header(opt.Out, "§II-A: Compresso's best-of-transform BPC vs always-transform BPC")
	tbl := stats.NewTable("bench", "bestof-bytes", "baseline-bytes", "saving")
	var savings []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.BestOfBytes, r.BaselineByte, r.Saving)
		savings = append(savings, r.Saving)
	}
	tbl.AddRow("Average", "", "", stats.Mean(savings))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: the modification saves an average of 13%% more memory than baseline BPC\n")
	return rows, nil
}

func init() {
	register("ab-bins", "ablation: 8 vs 4 line bins and page sizes (§IV-A1)", runAbBins, abBinsGrid)
	register("ab-align", "ablation: alignment-friendly line sizes (§IV-B1)", runAbAlign, abAlignGrid)
	register("bpc-variants", "modified (best-of-transform) BPC vs baseline BPC (§II-A)", runBPCVariants)
}
