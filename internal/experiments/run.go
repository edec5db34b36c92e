package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"

	"compresso/internal/core"
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

// runCache memoizes single-core results across the whole sweep; each
// distinct runKey simulates once per process (until resetMemos).
var runCache memo[runKey, sim.Result]

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

// runSingle returns the result of simulating prof under spec, running
// it only when no earlier caller in the process has (runCache). The
// returned Result is shared: callers must not mutate it.
//
// The computing caller's ctx, with the pprof labels system=<sys> and
// bench=<profile> added for the run, is installed as the run's Cancel; a
// canceled or panicking run publishes nothing and unwinds to that
// caller alone. A caller waiting on another's in-flight run stops
// waiting when its own ctx fires and unwinds with the same kind of
// cancellation error a canceled simulation throws, which the grid
// classifies as a cancellation.
func runSingle(ctx context.Context, opt Options, prof workload.Profile, spec runSpec) sim.Result {
	res, err := runCache.get(ctx, spec.key(prof, opt), func() (res sim.Result, _ error) {
		labels := pprof.Labels("system", string(spec.sys), "bench", prof.Name)
		pprof.Do(ctx, labels, func(ctx context.Context) {
			res = sim.RunSingle(prof, spec.config(ctx, opt))
		})
		return res, nil
	})
	if err != nil {
		panic(fmt.Errorf("experiments: waiting for %s on %s: %w", spec.sys, prof.Name, err))
	}
	return res
}
