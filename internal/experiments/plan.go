package experiments

import (
	"context"
	"runtime/pprof"
	"slices"

	"compresso/internal/parallel"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// singleGrid is one declaration of a single-core grid: the
// benchmarks it sweeps and the runs it asks for on each, every spec
// on every profile. The grid's cells read it (perProfile, or by index)
// and its experiment registers it for the plan, so the two read one
// list.
type singleGrid struct {
	profs []workload.Profile
	specs []runSpec
}

// mustProfiles resolves benchmark names to their profiles, in order.
// The names are program constants, so an unknown one panics at package
// init.
func mustProfiles(names ...string) []workload.Profile {
	out := make([]workload.Profile, len(names))
	for i, name := range names {
		prof, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = prof
	}
	return out
}

// perProfile fans g out as the grid label, one cell per profile in
// order; fn receives the cell's profile and its runs of g.specs, in
// order.
func perProfile[T any](opt Options, label string, g singleGrid, fn func(ctx context.Context, prof workload.Profile, runs []sim.Result) T) []T {
	return grid(opt, label, len(g.profs), func(ctx context.Context, i int) T {
		return fn(ctx, g.profs[i], runMany(ctx, opt, g.profs[i], g.specs))
	})
}

// plannedPass is the runs of one op stream, all on one profile, which
// the plan runs in one pass.
type plannedPass struct {
	prof  workload.Profile
	specs []runSpec
}

// planPasses groups the runs of the grids es register by op stream
// (runKey.streamKey), each distinct run once, into one plannedPass per
// stream. The passes come largest first, so the longest pass does not
// start last; equal sizes keep the order of their first run.
func planPasses(opt Options, es []Experiment) []plannedPass {
	var passes []plannedPass
	stream := map[runKey]int{}
	planned := map[runKey]bool{}
	for _, e := range es {
		for _, g := range e.grids {
			for _, prof := range g.profs {
				for _, s := range g.specs {
					k := s.key(prof, opt)
					if planned[k] {
						continue
					}
					planned[k] = true
					i, ok := stream[k.streamKey()]
					if !ok {
						i = len(passes)
						stream[k.streamKey()] = i
						passes = append(passes, plannedPass{prof: prof})
					}
					passes[i].specs = append(passes[i].specs, s)
				}
			}
		}
	}
	slices.SortStableFunc(passes, func(a, b plannedPass) int { return len(b.specs) - len(a.specs) })
	return passes
}

// plan runs every run of the single-core grids es register ahead of
// their fan-out: one runMany, and so one lockstep pass, per op stream,
// on opt.Jobs workers, so every grid cell's runMany is a runCache hit.
// The plan only saves work. A pass that panics or is canceled publishes nothing
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
