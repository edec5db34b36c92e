package experiments

import (
	"context"
	"fmt"

	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// DMCRow compares the related-work DMC baseline (§VIII) against
// Compresso on one benchmark: DMC's coarse-granularity LZ wins
// capacity on cold data but pays mechanism-switch and block-granular
// data movement, which is the paper's critique ("opportunistically
// changing the granularity of compression involves substantial
// additional data movement").
type DMCRow struct {
	Bench        string
	MXTRel       float64 // cycle perf vs uncompressed
	DMCRel       float64
	CompressoRel float64
	MXTRatio     float64
	DMCRatio     float64
	CompRatio    float64
	DMCExtra     float64
	CompExtra    float64
}

// relatedDMCGrid is the related-dmc grid: the capacity-motivated
// classes DMC targets (hot/cold phase structure, large footprints) plus
// one cache-friendly control, each on the uncompressed baseline, MXT,
// DMC and Compresso.
var relatedDMCGrid = singleGrid{
	profs: mustProfiles("mcf", "omnetpp", "GemsFDTD", "libquantum", "Graph500", "xalancbmk", "povray"),
	specs: onSystems(runSpec{}, sim.Uncompressed, sim.MXT, sim.DMC, sim.Compresso),
}

// RelatedDMCData runs the comparison (MXT, DMC, Compresso against the
// uncompressed baseline). Benchmarks are independent cells fanned out
// across Options.Jobs workers.
func RelatedDMCData(opt Options) []DMCRow {
	return perProfile(opt, "related-dmc", relatedDMCGrid, func(_ context.Context, prof workload.Profile, runs []sim.Result) DMCRow {
		base, m, d, c := runs[0], runs[1], runs[2], runs[3]
		return DMCRow{
			Bench:        prof.Name,
			MXTRel:       float64(base.Cycles) / float64(m.Cycles),
			DMCRel:       float64(base.Cycles) / float64(d.Cycles),
			CompressoRel: float64(base.Cycles) / float64(c.Cycles),
			MXTRatio:     m.Ratio,
			DMCRatio:     d.Ratio,
			CompRatio:    c.Ratio,
			DMCExtra:     d.Mem.RelativeExtra(),
			CompExtra:    c.Mem.RelativeExtra(),
		}
	})
}

func runRelatedDMC(opt Options) (any, error) {
	rows := RelatedDMCData(opt)
	header(opt.Out, "Related work (§VIII): MXT / DMC style baselines vs Compresso")
	tbl := stats.NewTable("bench", "mxt:perf", "dmc:perf", "compresso:perf",
		"mxt:ratio", "dmc:ratio", "compresso:ratio", "dmc:extra", "compresso:extra")
	var mp, dp, cp []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.MXTRel, r.DMCRel, r.CompressoRel,
			r.MXTRatio, r.DMCRatio, r.CompRatio, r.DMCExtra, r.CompExtra)
		mp = append(mp, r.MXTRel)
		dp = append(dp, r.DMCRel)
		cp = append(cp, r.CompressoRel)
	}
	tbl.AddRow("Geomean", stats.Geomean(mp), stats.Geomean(dp), stats.Geomean(cp), "", "", "", "", "")
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper §VIII: DMC's granularity switching \"can potentially increase the data movement\"\n")
	return rows, nil
}

func init() {
	register("related-dmc", "related-work comparison: DMC dual compression vs Compresso (§VIII)", runRelatedDMC, relatedDMCGrid)
}
