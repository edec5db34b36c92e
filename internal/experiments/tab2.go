package experiments

import (
	"context"
	"fmt"

	"compresso/internal/capacity"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// Tab2Cell is one (memory fraction, core count) cell of Tab. II.
type Tab2Cell struct {
	Frac          float64
	Cores         int
	LCP           float64
	Compresso     float64
	Unconstrained float64
}

// tab2Fracs are Tab. II's constrained-memory fractions, in row order.
var tab2Fracs = [3]float64{0.8, 0.7, 0.6}

// Tab2Data sweeps the constrained-memory fractions of Tab. II for 1-
// and 4-core systems (capacity methodology; all numbers relative to
// the constrained uncompressed baseline). Each benchmark or mix is one
// cell fanned out across Options.Jobs workers: it profiles the trace
// once and replays that profile at every fraction. The per-cell
// results are averaged back into table order afterwards.
func Tab2Data(opt Options) ([]Tab2Cell, error) {
	profs := workload.PerformanceSet()
	mixes := sim.Mixes()
	mixProfs := make([][]workload.Profile, len(mixes))
	for i, mix := range mixes {
		ps, err := mix.Profiles()
		if err != nil {
			return nil, fmt.Errorf("tab2: mix %s: %w", mix.Name, err)
		}
		mixProfs[i] = ps
	}

	// Cell layout: the single-core benchmarks first, then the 4-core
	// mixes. The row type's fields are exported so the cell journals
	// losslessly (journal.Record verifies the round-trip).
	type rel struct{ LCP, Comp, Unc float64 }
	relOf := func(perf [capacity.NSizers]float64, unc float64) rel {
		return rel{LCP: perf[capacity.LCP], Comp: perf[capacity.Compresso], Unc: unc}
	}
	vals := grid(opt, "tab2", len(profs)+len(mixes), func(_ context.Context, j int) [len(tab2Fracs)]rel {
		cfg := capacity.DefaultConfig(0)
		cfg.FootprintScale = opt.scale()
		cfg.Seed = opt.seed()
		var row [len(tab2Fracs)]rel
		if j < len(profs) {
			cfg.Ops = opt.ops() * 2
			prof := capacity.Profile(profs[j], cfg)
			for f, frac := range tab2Fracs {
				out := prof.At(frac)
				row[f] = relOf(out.RelPerf, out.Unconstrained)
			}
			return row
		}
		m := j - len(profs)
		cfg.Ops = opt.ops()
		prof := capacity.ProfileMix(mixes[m].Name, mixProfs[m], cfg)
		for f, frac := range tab2Fracs {
			out := prof.At(frac)
			row[f] = relOf(out.RelPerf, out.Unconstrained)
		}
		return row
	})

	var cells []Tab2Cell
	for f, frac := range tab2Fracs {
		mean := func(rows [][len(tab2Fracs)]rel, cores int) Tab2Cell {
			var lcp, comp, unc []float64
			for _, v := range rows {
				lcp = append(lcp, v[f].LCP)
				comp = append(comp, v[f].Comp)
				unc = append(unc, v[f].Unc)
			}
			return Tab2Cell{
				Frac: frac, Cores: cores,
				LCP:           stats.Mean(lcp),
				Compresso:     stats.Mean(comp),
				Unconstrained: stats.Mean(unc),
			}
		}
		cells = append(cells, mean(vals[:len(profs)], 1))
		cells = append(cells, mean(vals[len(profs):], 4))
	}
	return cells, nil
}

func runTab2(opt Options) (any, error) {
	cells, err := Tab2Data(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Tab. II: speedup vs constrained-memory baseline at 80/70/60% of footprint")
	tbl := stats.NewTable("memory", "cores", "lcp", "compresso", "unconstrained")
	for _, c := range cells {
		tbl.AddRow(fmt.Sprintf("%.0f%%", c.Frac*100), c.Cores, c.LCP, c.Compresso, c.Unconstrained)
	}
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper @70%%: 1-core LCP 1.11 / Compresso 1.29 / unconstrained 1.39; 4-core 1.97 / 2.33 / 2.51\n")
	return cells, nil
}

func init() {
	register("tab2", "Tab. II capacity-speedup sweep (80/70/60% memory, 1 and 4 cores)", runTab2)
}
