package experiments

import (
	"context"
	"runtime/pprof"
	"slices"

	"compresso/internal/parallel"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// demand is one runMany call an experiment's grid cell makes: the
// single-core runs it asks for on one profile. An experiment declares
// its demands from the same spec functions its cells call, so the plan
// and the cells cannot drift apart.
type demand struct {
	prof  workload.Profile
	specs []runSpec
}

// everyProfile is the demands of a grid whose cells each ask for specs
// on their own profile of profs.
func everyProfile(profs []workload.Profile, specs []runSpec) []demand {
	out := make([]demand, len(profs))
	for i, prof := range profs {
		out[i] = demand{prof: prof, specs: specs}
	}
	return out
}

// byNames resolves the benchmark names a grid sweeps, skipping unknown
// ones: the cell that asks for an unknown name reports it.
func byNames(names []string) []workload.Profile {
	var out []workload.Profile
	for _, name := range names {
		if prof, err := workload.ByName(name); err == nil {
			out = append(out, prof)
		}
	}
	return out
}

// planPasses groups the runs es declare by op stream (runKey.streamKey),
// each distinct run once, into one demand per stream: the stream's
// pass. The passes come largest first, so the longest pass does not
// start last; equal sizes keep the order of their first demand.
func planPasses(opt Options, es []Experiment) []demand {
	var passes []demand
	stream := map[runKey]int{}
	planned := map[runKey]bool{}
	for _, e := range es {
		if e.runs == nil {
			continue
		}
		for _, d := range e.runs() {
			for _, s := range d.specs {
				k := s.key(d.prof, opt)
				if planned[k] {
					continue
				}
				planned[k] = true
				i, ok := stream[k.streamKey()]
				if !ok {
					i = len(passes)
					stream[k.streamKey()] = i
					passes = append(passes, demand{prof: d.prof})
				}
				passes[i].specs = append(passes[i].specs, s)
			}
		}
	}
	slices.SortStableFunc(passes, func(a, b demand) int { return len(b.specs) - len(a.specs) })
	return passes
}

// plan runs every single-core run es ask for ahead of their fan-out:
// one runMany, and so one lockstep pass, per op stream, on opt.Jobs
// workers, so every grid cell's runMany is a runCache hit. The plan
// only saves work. A pass that panics or is canceled publishes nothing
// (the claim rule), and the grid cell that asks for its runs computes
// them itself and fails there as it would without a plan. Once the
// passes end, no one-core cache-filter log has a reader left, so the
// plan drops them (sim.ResetOneCoreFilters).
//
// The plan reports to opt.Progress as the grid "plan", one cell per
// stream, under the pprof label experiment=plan. Like any grid it
// starts no pass once opt.Ctx has fired; and it plans nothing when
// opt.Journal loaded any cell, since a resumed run's replayed cells ask
// for no runs.
func plan(opt Options, es []Experiment) {
	if opt.Journal != nil && opt.Journal.Stats().Loaded > 0 {
		return
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	passes := planPasses(opt, es)
	if len(passes) == 0 {
		return
	}
	before := passCount.all.Load()
	pprof.Do(ctx, pprof.Labels("experiment", "plan"), func(ctx context.Context) {
		run := parallel.Run{Jobs: opt.Jobs, Ctx: ctx, Progress: opt.Progress, Label: "plan"}
		parallel.MapResilient(run, len(passes), func(ctx context.Context, i, _ int) (struct{}, error) {
			// Recovered here, not by the grid, so that a failed pass
			// skips no later one. It published nothing, and the cell
			// that asks for its runs raises the same failure itself.
			defer func() { _ = recover() }()
			runMany(ctx, opt, passes[i].prof, passes[i].specs)
			return struct{}{}, nil
		})
	})
	passCount.planned.Add(passCount.all.Load() - before)
	sim.ResetOneCoreFilters()
}
