package experiments

import (
	"context"
	"fmt"
	"maps"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"

	"compresso/internal/core"
	"compresso/internal/parallel"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// runSpec is one single-core simulation as an experiment asks for it:
// the system plus the per-run knobs the experiments vary. The sweep's
// trace length, footprint scale and seed come from Options.
type runSpec struct {
	sys sim.System
	// mod tweaks the compresso controller's config (ablations); other
	// systems ignore it, as sim.Config.CompressoMod does.
	mod         func(*core.Config)
	overlap     bool
	attribution bool
	topPages    int
}

// onSystems is spec on each of systems, in order.
func onSystems(spec runSpec, systems ...sim.System) []runSpec {
	out := make([]runSpec, len(systems))
	for i, sys := range systems {
		out[i] = spec
		out[i].sys = sys
	}
	return out
}

// runKey identifies a single-core run by everything that determines
// its Result. core is the controller config the run resolves to —
// core.DefaultConfig with the overlap flag and mod applied — rendered
// with %#v, so every field (bins, page sizes, toggles, cache geometry,
// latencies) is part of the key and two modifiers that produce the
// same config share one run: fig4's fixed-chunk baseline, fig6's stage
// 0 and ab-align's legacy column are one simulation. The profile is
// rendered the same way.
type runKey struct {
	prof        string
	sys         sim.System
	ops         uint64
	scale       int
	seed        uint64
	overlap     bool
	attribution bool
	topPages    int
	core        string
}

// runCache memoizes single-core results across the whole sweep, one
// run map per op stream (streamKey): each distinct runKey simulates
// once per process (until resetMemos). A pass updates its stream's map
// under the stream's key, so one stream computes one pass at a time.
// Two experiments sweeping the benchmarks in the same order would
// otherwise run their passes on each stream side by side, one
// recording its cache-filter log and the other simulating its caches
// live (DESIGN.md §13); serialized, the second replays the first's
// log.
var runCache parallel.Memo[runKey, map[runKey]sim.Result]

// passCount counts the lockstep passes runMany has started since the
// last resetMemos: all of them, and those the plan started. Tests read
// it to pin that a planned sweep leaves no pass to its grid cells.
var passCount struct{ all, planned atomic.Int64 }

// streamKey keeps the fields of k that fix its op stream: the profile,
// ops, scale and seed.
func (k runKey) streamKey() runKey {
	return runKey{prof: k.prof, ops: k.ops, scale: k.scale, seed: k.seed}
}

func (s runSpec) key(prof workload.Profile, opt Options) runKey {
	k := runKey{
		prof:        fmt.Sprintf("%#v", prof),
		sys:         s.sys,
		ops:         opt.ops(),
		scale:       opt.scale(),
		seed:        opt.seed(),
		overlap:     s.overlap,
		attribution: s.attribution,
		topPages:    s.topPages,
	}
	if s.sys == sim.Compresso {
		c := core.DefaultConfig(0, 0)
		c.Overlap = s.overlap
		if s.mod != nil {
			s.mod(&c)
		}
		k.core = fmt.Sprintf("%#v", c)
	}
	return k
}

// config builds the sim.Config for the run. It is the only place the
// experiments assemble a single-core config.
func (s runSpec) config(ctx context.Context, opt Options) sim.Config {
	cfg := sim.DefaultConfig(s.sys)
	cfg.Ops = opt.ops()
	cfg.FootprintScale = opt.scale()
	cfg.Seed = opt.seed()
	cfg.CompressoMod = s.mod
	cfg.Overlap = s.overlap
	cfg.Attribution = s.attribution
	cfg.TopPages = s.topPages
	cfg.Cancel = ctx
	return cfg
}

// runSingle returns the result of simulating prof under spec: runMany
// of one spec.
func runSingle(ctx context.Context, opt Options, prof workload.Profile, spec runSpec) sim.Result {
	return runMany(ctx, opt, prof, []runSpec{spec})[0]
}

// runMany returns the results of simulating prof under each of specs,
// in order, running only the runs no earlier caller in the process has
// (runCache). Under its stream's key it computes every missing run,
// once however often specs repeats it, in one lockstep pass
// (sim.RunSingles), so a grid cell that wants several systems on one
// benchmark draws its op stream and builds its image once. The
// returned Results are shared: callers must not mutate them.
//
// The computing caller's ctx, with the pprof labels bench=<profile> and
// systems=<the pass's systems, comma-separated, each once> added for the
// pass, is installed as every run's Cancel; a canceled or panicking pass
// publishes nothing and unwinds to that caller alone. A caller waiting
// on another's pass of the stream stops waiting when its own ctx fires
// and unwinds with the same kind of cancellation error a canceled
// simulation throws, which the grid classifies as a cancellation.
func runMany(ctx context.Context, opt Options, prof workload.Profile, specs []runSpec) []sim.Result {
	keys := make([]runKey, len(specs))
	for i, s := range specs {
		keys[i] = s.key(prof, opt)
	}
	runs, err := runCache.Update(ctx, keys[0].streamKey(), func(runs map[runKey]sim.Result, _ bool) (map[runKey]sim.Result, error) {
		var missing []runSpec
		var missingKeys []runKey
		for i, k := range keys {
			if _, ok := runs[k]; !ok && !slices.Contains(missingKeys, k) {
				missing, missingKeys = append(missing, specs[i]), append(missingKeys, k)
			}
		}
		if missing == nil {
			return runs, nil
		}
		passCount.all.Add(1)
		var res []sim.Result
		labels := pprof.Labels("systems", systemNames(missing), "bench", prof.Name)
		pprof.Do(ctx, labels, func(ctx context.Context) {
			cfgs := make([]sim.Config, len(missing))
			for i, s := range missing {
				cfgs[i] = s.config(ctx, opt)
			}
			res = sim.RunSingles(prof, cfgs)
		})
		// Published maps are shared read-only: extend a copy.
		next := make(map[runKey]sim.Result, len(runs)+len(res))
		maps.Copy(next, runs)
		for i, k := range missingKeys {
			next[k] = res[i]
		}
		return next, nil
	})
	if err != nil {
		panic(fmt.Errorf("experiments: waiting for %s on %s: %w", systemNames(specs), prof.Name, err))
	}
	out := make([]sim.Result, len(keys))
	for i, k := range keys {
		out[i] = runs[k]
	}
	return out
}

// systemNames names the systems of specs, comma-separated in order,
// each once.
func systemNames(specs []runSpec) string {
	var names []string
	for _, s := range specs {
		if name := string(s.sys); !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}
