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

// capOutcomes is one capacity cell's evaluation at each of tab2Fracs.
type capOutcomes [len(tab2Fracs)]capacity.Outcome

// at returns the evaluation at frac, which must be one of tab2Fracs
// (TestDualFracIsTab2Frac pins dualFrac).
func (o capOutcomes) at(frac float64) capacity.Outcome {
	for f, v := range tab2Fracs {
		if v == frac {
			return o[f]
		}
	}
	panic(fmt.Sprintf("experiments: capacity fraction %v is not one of Tab. II's %v", frac, tab2Fracs))
}

// capKey identifies a capacity cell by everything that determines its
// outcomes: the cell's name, its resolved profiles and its
// capacity.Config, the latter two rendered with %#v as runKey renders
// its profile.
type capKey struct {
	name, profs, cfg string
}

// capCache memoizes capacity cells across the whole sweep: each
// distinct cell profiles once per process (until resetMemos) and keeps
// only its outcomes at Tab. II's fractions, not its Recording.
// Tab. II, Fig. 10 and Fig. 11 all read it, so Fig. 11's mixes reuse
// Tab. II's mix cells.
var capCache memo[capKey, capOutcomes]

// capacityCell returns the capacity evaluation of a benchmark (profs
// of length 1) or a mix at ops operations per core and every Tab. II
// fraction, profiling it only when no earlier caller in the process
// has (capCache). It is the only place the experiments assemble a
// capacity.Config. A caller waiting on another's in-flight cell stops
// waiting when its own ctx fires.
func capacityCell(ctx context.Context, opt Options, name string, profs []workload.Profile, ops uint64) capOutcomes {
	cfg := capacity.DefaultConfig()
	cfg.Ops = ops
	cfg.FootprintScale = opt.scale()
	cfg.Seed = opt.seed()
	key := capKey{name: name, profs: fmt.Sprintf("%#v", profs), cfg: fmt.Sprintf("%#v", cfg)}
	outs, err := capCache.get(ctx, key, func() (capOutcomes, error) {
		rec := capacity.Profile(name, profs, cfg)
		var outs capOutcomes
		for f, frac := range tab2Fracs {
			outs[f] = rec.At(frac)
		}
		return outs, nil
	})
	if err != nil {
		panic(fmt.Errorf("experiments: waiting for the capacity cell of %s: %w", name, err))
	}
	return outs
}

// Tab2Data sweeps the constrained-memory fractions of Tab. II for 1-
// and 4-core systems (capacity methodology; all numbers relative to
// the constrained uncompressed baseline). Each benchmark or mix is one
// cell fanned out across Options.Jobs workers: it profiles the trace
// once and replays that profile at every fraction (capacityCell, whose
// mix cells Fig. 11 shares). The per-cell results are averaged back
// into table order afterwards.
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

	// Cell layout: the single-core benchmarks (one-core mixes) first,
	// then the 4-core mixes. The row type's fields are exported so the
	// cell journals losslessly (journal.Record verifies the round-trip).
	type rel struct{ LCP, Comp, Unc float64 }
	vals := grid(opt, "tab2", len(profs)+len(mixes), func(ctx context.Context, j int) [len(tab2Fracs)]rel {
		var name string
		var cores []workload.Profile
		ops := opt.ops()
		if j < len(profs) {
			name, cores, ops = profs[j].Name, profs[j:j+1], ops*2
		} else {
			m := j - len(profs)
			name, cores = mixes[m].Name, mixProfs[m]
		}
		var row [len(tab2Fracs)]rel
		for f, out := range capacityCell(ctx, opt, name, cores, ops) {
			row[f] = rel{LCP: out.RelPerf[capacity.LCP], Comp: out.RelPerf[capacity.Compresso], Unc: out.Unconstrained}
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
