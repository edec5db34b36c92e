package experiments

import (
	"context"
	"fmt"

	"compresso/internal/capacity"
	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// lineSize8 narrows a compressed line size to the uint8 the per-page
// size tables store. Sizes are <= 64 for every current codec; the
// guard keeps a future codec or granularity change from silently
// truncating.
func lineSize8(n int) uint8 {
	if n < 0 || n > 255 {
		panic(fmt.Sprintf("experiments: compressed size %d does not fit uint8", n))
	}
	return uint8(n)
}

// Fig2Row is one benchmark's compression ratios under the four
// algorithm × packing combinations of Fig. 2.
type Fig2Row struct {
	Bench       string
	BPCLinePack float64
	BPCLCP      float64
	BDILinePack float64
	BDILCP      float64
}

// Fig2Data measures page-packing compression ratios over each
// benchmark's memory image: {BPC, BDI} × {LinePack, LCP-packing}, all
// with the legacy 0/22/44/64 line bins (the packing comparison of
// §II-C predates the alignment optimization). Benchmarks are
// independent cells fanned out across Options.Jobs workers.
func Fig2Data(opt Options) []Fig2Row {
	profs := workload.All()
	return grid(opt, "fig2", len(profs), func(_ context.Context, n int) Fig2Row {
		prof := workload.Scale(profs[n], opt.scale())
		img := workload.NewImage(prof, opt.seed())
		row := Fig2Row{Bench: prof.Name}
		bpc, bdi := compress.BPC{}, compress.BDI{}

		var footprint, lpBPC, lcpBPC, lpBDI, lcpBDI int64
		var rawsBPC, rawsBDI [memctl.LinesPerPage]uint8
		for p := uint64(0); p < uint64(prof.FootprintPages); p++ {
			page := img.Page(p)
			for i, line := range page {
				rawsBPC[i] = lineSize8(compress.SizeOnly(bpc, line))
				rawsBDI[i] = lineSize8(compress.SizeOnly(bdi, line))
			}
			footprint += memctl.PageSize
			lpBPC += int64(capacity.LinePackPageBytes(rawsBPC[:], compress.LegacyBins))
			lcpBPC += int64(capacity.LCPPageBytes(rawsBPC[:], compress.LegacyBins))
			lpBDI += int64(capacity.LinePackPageBytes(rawsBDI[:], compress.LegacyBins))
			lcpBDI += int64(capacity.LCPPageBytes(rawsBDI[:], compress.LegacyBins))
		}
		row.BPCLinePack = ratio(footprint, lpBPC)
		row.BPCLCP = ratio(footprint, lcpBPC)
		row.BDILinePack = ratio(footprint, lpBDI)
		row.BDILCP = ratio(footprint, lcpBDI)
		return row
	})
}

func ratio(fp, store int64) float64 {
	if store <= 0 {
		return float64(fp)
	}
	return float64(fp) / float64(store)
}

func runFig2(opt Options) (any, error) {
	rows := Fig2Data(opt)
	header(opt.Out, "Fig. 2: Compression ratio, {BPC,BDI} x {LinePack,LCP-packing}")
	tbl := stats.NewTable("bench", "bpc+linepack", "bpc+lcp", "bdi+linepack", "bdi+lcp")
	var a, b, c, d []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.BPCLinePack, r.BPCLCP, r.BDILinePack, r.BDILCP)
		a = append(a, r.BPCLinePack)
		b = append(b, r.BPCLCP)
		c = append(c, r.BDILinePack)
		d = append(d, r.BDILCP)
	}
	tbl.AddRow("Average", stats.Mean(a), stats.Mean(b), stats.Mean(c), stats.Mean(d))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out,
		"\nLCP-packing loss vs LinePack: BPC %.1f%% (paper: 13%%), BDI %.1f%% (paper: 2.3%%)\n",
		100*(1-stats.Mean(b)/stats.Mean(a)), 100*(1-stats.Mean(d)/stats.Mean(c)))
	return rows, nil
}

func init() {
	register("fig2", "compression ratio: {BPC,BDI} x {LinePack,LCP-packing} per benchmark", runFig2)
}
