package experiments

import (
	"context"
	"fmt"

	"compresso/internal/figures"
	"compresso/internal/parallel"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// backendsGrid sweeps a benchmark subset across every registered
// backend: the capacity/bandwidth-sensitive classes plus one
// cache-friendly control, kept small because the sweep is
// benchmarks x (whole registry). Its runs are one per system, in
// registry order.
var backendsGrid = singleGrid{
	profs: mustProfiles("gcc", "mcf", "omnetpp", "libquantum", "povray"),
	specs: onSystems(runSpec{}, sim.AllSystems()...),
}

// BackendRow is one benchmark's results across every registered
// backend. Systems carries the registry order the parallel slices are
// indexed by, so the artifact is self-describing even as backends are
// added.
type BackendRow struct {
	Bench   string
	Systems []string
	Perf    []float64 // cycle performance vs uncompressed
	Ratio   []float64
	Extra   []ExtraBreakdown
}

// backendsCache memoizes the registry-wide sweep shared by
// backends-ratio and backends-traffic (one computation per
// (quick, seed) configuration).
var backendsCache parallel.Memo[[2]uint64, []BackendRow]

// BackendsData sweeps every backend in the memctl registry over the
// benchmark subset. The system list is taken from the registry when
// the package initializes, after every backend sim imports has
// registered, so newly registered backends join the sweep — and its
// JSON artifact — with no experiment changes (DESIGN.md §12). Benchmarks
// are independent cells fanned out across Options.Jobs workers.
func BackendsData(opt Options) []BackendRow {
	rows, err := backendsCache.Get(opt.Ctx, opt.sweepKey(), func() ([]BackendRow, error) {
		specs := backendsGrid.specs
		return perProfile(opt, "backends", backendsGrid, func(_ context.Context, prof workload.Profile, results []sim.Result) BackendRow {
			row := BackendRow{
				Bench:   prof.Name,
				Systems: make([]string, len(specs)),
				Perf:    make([]float64, len(specs)),
				Ratio:   make([]float64, len(specs)),
				Extra:   make([]ExtraBreakdown, len(specs)),
			}
			var baseCycles uint64
			for s, res := range results {
				row.Systems[s] = specs[s].sys.String()
				if specs[s].sys == sim.Uncompressed {
					baseCycles = res.Cycles
				}
			}
			for s, res := range results {
				row.Perf[s] = float64(baseCycles) / float64(res.Cycles)
				row.Ratio[s] = res.Ratio
				row.Extra[s] = breakdown(res)
			}
			return row
		}), nil
	})
	if err != nil {
		panic(err)
	}
	return rows
}

func runBackendsRatio(opt Options) (any, error) {
	rows := BackendsData(opt)
	systems := rows[0].Systems
	header(opt.Out, "Backends: cycle performance and compression ratio across the registry")

	tbl := stats.NewTable(append([]string{"bench \\ perf"}, systems...)...)
	perf := make([][]float64, len(systems))
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for s, v := range r.Perf {
			cells = append(cells, v)
			perf[s] = append(perf[s], v)
		}
		tbl.AddRow(cells...)
	}
	cells := []interface{}{"Geomean"}
	for s := range systems {
		cells = append(cells, stats.Geomean(perf[s]))
	}
	tbl.AddRow(cells...)
	tbl.Render(opt.Out)

	fmt.Fprintln(opt.Out)
	tbl = stats.NewTable(append([]string{"bench \\ ratio"}, systems...)...)
	ratio := make([][]float64, len(systems))
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for s, v := range r.Ratio {
			cells = append(cells, v)
			ratio[s] = append(ratio[s], v)
		}
		tbl.AddRow(cells...)
	}
	cells = []interface{}{"Average"}
	for s := range systems {
		cells = append(cells, stats.Mean(ratio[s]))
	}
	tbl.AddRow(cells...)
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\nbandwidth/tiering backends (cram, cxl) hold ratio 1.0 by design; capacity backends trade extra accesses for ratio\n")
	return rows, nil
}

func runBackendsTraffic(opt Options) (any, error) {
	rows := BackendsData(opt)
	systems := rows[0].Systems
	header(opt.Out, "Backends: extra data movement relative to demand accesses, across the registry")

	tbl := stats.NewTable(append([]string{"bench \\ extra"}, systems...)...)
	extra := make([][]float64, len(systems))
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for s, e := range r.Extra {
			cells = append(cells, e.Total())
			extra[s] = append(extra[s], e.Total())
		}
		tbl.AddRow(cells...)
	}
	cells := []interface{}{"Average"}
	avgs := make([]float64, len(systems))
	for s := range systems {
		avgs[s] = stats.Mean(extra[s])
		cells = append(cells, avgs[s])
	}
	tbl.AddRow(cells...)
	tbl.Render(opt.Out)

	fmt.Fprintln(opt.Out, "\naverage extra accesses per backend:")
	figures.Bar{Width: 44, Format: "%.3f"}.Render(opt.Out, systems, avgs)
	fmt.Fprintf(opt.Out, "\nthe Fig. 4/6 denominator applies to every backend: extras are split + overflow/repack/speculation + metadata\n")
	return rows, nil
}

func init() {
	register("backends-ratio", "registry-wide sweep: perf and compression ratio for every backend", runBackendsRatio, backendsGrid)
	register("backends-traffic", "registry-wide sweep: relative extra accesses for every backend", runBackendsTraffic, backendsGrid)
}
