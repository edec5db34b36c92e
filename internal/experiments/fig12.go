package experiments

import (
	"fmt"

	"compresso/internal/energy"
	"compresso/internal/sim"
	"compresso/internal/stats"
)

// Fig12Row is one benchmark's energy relative to the uncompressed
// system.
type Fig12Row struct {
	Bench        string
	DRAMRel      [3]float64 // LCP, LCP+Align, Compresso
	CoreRel      float64    // Compresso core energy relative
	CompressoRaw energy.Breakdown
}

func energyOf(res sim.Result, cores int) energy.Breakdown {
	m := energy.Default()
	return m.Evaluate(energy.Inputs{
		Dram:            res.Dram,
		Mem:             res.Mem,
		Cycles:          res.Cycles,
		MDCacheAccesses: res.MDCache.Accesses(),
		Compressions:    energy.CompressionsEstimate(res.Mem),
		Cores:           cores,
	})
}

// Fig12Data prices the Fig. 10 cycle runs with the energy model.
func Fig12Data(opt Options) []Fig12Row {
	rows10 := Fig10Data(opt)
	var rows []Fig12Row
	for _, r := range rows10 {
		base := energyOf(r.Runs[sim.Uncompressed.String()], 1)
		row := Fig12Row{Bench: r.Bench}
		for i, sys := range CompressedSystems {
			e := energyOf(r.Runs[sys.String()], 1)
			row.DRAMRel[i] = (e.DRAM() + e.MDCache + e.Compressor) / base.DRAM()
			if sys == sim.Compresso {
				row.CoreRel = e.Core / base.Core
				row.CompressoRaw = e
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func runFig12(opt Options) (any, error) {
	rows := Fig12Data(opt)
	header(opt.Out, "Fig. 12: energy relative to the uncompressed system")
	tbl := stats.NewTable("bench", "dram:lcp", "dram:lcp-align", "dram:compresso", "core:compresso")
	var d [3][]float64
	var c []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.DRAMRel[0], r.DRAMRel[1], r.DRAMRel[2], r.CoreRel)
		for i := 0; i < 3; i++ {
			d[i] = append(d[i], r.DRAMRel[i])
		}
		c = append(c, r.CoreRel)
	}
	tbl.AddRow("Average", stats.Mean(d[0]), stats.Mean(d[1]), stats.Mean(d[2]), stats.Mean(c))
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper: Compresso cuts DRAM energy 11%% vs uncompressed, 60%% more savings than LCP; core energy equal\n")
	return rows, nil
}

func init() {
	register("fig12", "DRAM and core energy relative to uncompressed", runFig12, fig10Grid)
}
