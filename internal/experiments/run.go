package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

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

// streamLocks holds one lock per op stream, keyed by the runKey fields
// that fix the stream (profile, ops, scale, seed): runMany computes one
// pass of a stream at a time. Two experiments sweeping the benchmarks
// in the same order would otherwise run their passes on each stream
// side by side, one recording its cache-filter log and the other
// simulating its caches live (DESIGN.md §13); serialized, the second
// replays the first's log.
var streamLocks keyedLock

// keyedLock is a set of mutexes by run key whose waits honour a
// context. A key's entry lives while a caller holds or waits for it.
type keyedLock struct {
	mu sync.Mutex
	m  map[runKey]*keyLock
}

type keyLock struct {
	held  chan struct{} // a one-slot semaphore
	users int           // callers holding or waiting
}

// lock takes key's lock, waiting on ctx (nil means never canceled):
// when ctx fires first, lock returns ctx's error without the lock.
// Otherwise the caller must call the returned unlock once.
func (l *keyedLock) lock(ctx context.Context, key runKey) (unlock func(), err error) {
	l.mu.Lock()
	if l.m == nil {
		l.m = map[runKey]*keyLock{}
	}
	kl := l.m[key]
	if kl == nil {
		kl = &keyLock{held: make(chan struct{}, 1)}
		l.m[key] = kl
	}
	kl.users++
	l.mu.Unlock()
	leave := func() {
		l.mu.Lock()
		if kl.users--; kl.users == 0 {
			delete(l.m, key)
		}
		l.mu.Unlock()
	}
	var canceled <-chan struct{}
	if ctx != nil {
		canceled = ctx.Done()
	}
	select {
	case kl.held <- struct{}{}:
		return func() { <-kl.held; leave() }, nil
	case <-canceled:
		leave()
		return nil, ctx.Err()
	}
}

// runSingle returns the result of simulating prof under spec: runMany
// of one spec.
func runSingle(ctx context.Context, opt Options, prof workload.Profile, spec runSpec) sim.Result {
	return runMany(ctx, opt, prof, []runSpec{spec})[0]
}

// runMany returns the results of simulating prof under each of specs,
// in order, running only the runs no earlier caller in the process has
// (runCache). It claims every such run at once (memo.getMany) and
// computes them in one lockstep pass (sim.RunSingles), so a grid cell
// that wants several systems on one benchmark draws its op stream and
// builds its image once. The returned Results are shared: callers must
// not mutate them.
//
// The computing caller's ctx, with the pprof labels bench=<profile> and
// systems=<the pass's systems, comma-separated, each once> added for the
// pass, is installed as every run's Cancel; a canceled or panicking pass
// publishes nothing and unwinds to that caller alone. A caller waiting
// on another's in-flight run stops waiting when its own ctx fires and
// unwinds with the same kind of cancellation error a canceled
// simulation throws, which the grid classifies as a cancellation.
func runMany(ctx context.Context, opt Options, prof workload.Profile, specs []runSpec) []sim.Result {
	keys := make([]runKey, len(specs))
	for i, s := range specs {
		keys[i] = s.key(prof, opt)
	}
	res, err := runCache.getMany(ctx, keys, func(idx []int) (res []sim.Result, _ error) {
		k := keys[idx[0]]
		unlock, err := streamLocks.lock(ctx, runKey{prof: k.prof, ops: k.ops, scale: k.scale, seed: k.seed})
		if err != nil {
			return nil, err
		}
		defer unlock()
		claimed := make([]runSpec, len(idx))
		for k, i := range idx {
			claimed[k] = specs[i]
		}
		labels := pprof.Labels("systems", systemNames(claimed), "bench", prof.Name)
		pprof.Do(ctx, labels, func(ctx context.Context) {
			cfgs := make([]sim.Config, len(claimed))
			for k, s := range claimed {
				cfgs[k] = s.config(ctx, opt)
			}
			res = sim.RunSingles(prof, cfgs)
		})
		return res, nil
	})
	if err != nil {
		panic(fmt.Errorf("experiments: waiting for %s on %s: %w", systemNames(specs), prof.Name, err))
	}
	return res
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
