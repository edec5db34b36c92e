// compresso-sim runs the paper's experiments (tables and figures) or
// ad-hoc simulations. One mode flag picks what runs; a flag that mode
// does not read is a usage error (exit 2). The modes and their flags:
//
//	-promcheck FILE          nothing else
//	-list, -systems          nothing else
//	-exp NAME|all            -quick -seed -jobs -json -serve -progress -trace-out
//	                         -journal -resume -retry -retry-base -retry-cap
//	                         -cell-timeout -quarantine -chaos -chaos-seed -chaos-delay
//	-fleet                   -fleet-nodes -fleet-policy -quick -seed -scale -jobs -json -serve
//	-bench NAME -capacity F  -ops -scale -seed -jobs -json
//	-bench NAME              -system or -compare, and the run flags
//	-mix NAME                the run flags
//	-inject, -audit-every    the run flags (the robustness demo: gcc on compresso)
//
// The run flags are -ops -scale -seed -jobs -overlap -attribution
// -top-pages -inject -audit-every -trace-events -json -json-summary
// -serve -sample-every -sample-windows -trace-out. Every mode but
// -promcheck also reads -cpuprofile and -memprofile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"compresso/internal/audit"
	"compresso/internal/capacity"
	"compresso/internal/compress"
	"compresso/internal/experiments"
	"compresso/internal/faults"
	"compresso/internal/fleet"
	"compresso/internal/journal"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/obshttp"
	"compresso/internal/parallel"
	"compresso/internal/progress"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// Exit codes (DESIGN.md §11): 0 success, 1 fatal error, 2 usage/flag
// error, 3 degraded completion (quarantined cell failures, or an
// interrupted run that flushed its journal and artifacts).
const (
	exitOK       = 0
	exitFatal    = 1
	exitUsage    = 2
	exitDegraded = 3
)

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(usageExit(err))
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
		defer finishProfiles()
	}
	if c.memProfile != "" {
		heapProfilePath = c.memProfile
		defer finishProfiles()
	}

	// Live introspection. The grids feed one progress Tracker; the
	// terminal line, the server and the trace export read it. All of
	// them observe the run from the outside (snapshot copies, wall-clock
	// spans); none feeds back into results, so artifacts are
	// byte-identical with or without them (DESIGN.md §9).
	var tracker *progress.Tracker
	var term *progress.Terminal
	if c.serve != "" || c.progress || c.traceOut != "" {
		tracker = progress.NewTracker()
	}
	if c.progress {
		term = progress.NewTerminal(tracker, os.Stderr)
	}
	if c.serve != "" {
		server = obshttp.New(tracker)
		addr, err := server.Start(c.serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "compresso-sim: serving live introspection on http://%s\n", addr)
		defer server.Close()
	}

	var (
		expCtx   context.Context
		jrnl     *journal.Journal
		failures *parallel.FailureLog
		chaos    *faults.Chaos
		runErr   error
	)
	switch c.mode {
	case modePromCheck:
		runPromCheck(c.promCheck)
	case modeList:
		tbl := stats.NewTable("experiment", "description")
		for _, e := range experiments.List() {
			tbl.AddRow(e.Name, e.Desc)
		}
		tbl.Render(os.Stdout)
	case modeSystems:
		tbl := stats.NewTable("system", "description")
		for _, b := range memctl.Backends() {
			tbl.AddRow(b.Name, b.Desc)
		}
		tbl.Render(os.Stdout)
	case modeExp:
		// Resilience wiring (DESIGN.md §11): a signal-canceled context so
		// SIGINT/SIGTERM drain the grids gracefully (journal, artifacts and
		// trace for completed cells still flush; a second signal kills
		// immediately), plus the retry / quarantine / chaos / journal
		// options.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			stop() // restore default handling: a second signal terminates
		}()
		expCtx = ctx
		expOpts := experiments.Options{
			Out: os.Stdout, Quick: c.quick,
			Seed: c.seed, SeedSet: c.seedSet, Jobs: c.jobs,
			JSONDir: c.jsonDir, Ctx: ctx, CellTimeout: c.cellTimeout, Quarantine: c.quarantine,
		}
		if tracker != nil {
			expOpts.Progress = tracker // a nil *Tracker must not become a non-nil sink
		}
		if c.retry > 1 {
			expOpts.Retry = parallel.RetryPolicy{
				MaxAttempts: c.retry, BaseBackoff: c.retryBase,
				MaxBackoff: c.retryCap, Seed: c.seed,
			}
		}
		if c.quarantine {
			failures = &parallel.FailureLog{}
			expOpts.Failures = failures
		}
		if c.chaosSpec != "" {
			chaos = faults.NewChaos(c.chaos)
			expOpts.Chaos = chaos
		}
		if c.journal != "" {
			j, err := journal.Open(c.journal)
			if err != nil {
				fatal(err)
			}
			jrnl = j
			expOpts.Journal = j
		}
		if c.exp == "all" {
			// RunAll recovers from per-experiment panics so one broken
			// artifact does not kill the batch.
			runErr = experiments.RunAll(expOpts)
		} else {
			runErr = experiments.Run(c.exp, expOpts)
		}
	case modeFleet:
		runFleet(c)
	case modeCapacity:
		runCapacity(c)
	case modeBench, modeDemo:
		runBench(c)
	case modeMix:
		runMixCLI(c)
	}

	if term != nil {
		term.Finish()
	}
	if jrnl != nil {
		if err := jrnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "compresso-sim: closing journal:", err)
		}
		fmt.Fprintf(os.Stderr, "compresso-sim: journal %s: %s\n", jrnl.Path(), jrnl.Stats())
	}
	if c.traceOut != "" {
		writeTraceOut(c.traceOut, tracker)
	}
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "compresso-sim: chaos: %s\n", chaos.Totals())
	}
	writeFailureManifest(failures, c.jsonDir)

	// Exit code: an interrupt or quarantined failures end a run that
	// still flushed everything it completed — exit 3, distinct from a
	// fatal error's exit 1.
	code := exitOK
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "compresso-sim:", runErr)
		code = exitFatal
	}
	if expCtx != nil && expCtx.Err() != nil {
		fmt.Fprintln(os.Stderr, "compresso-sim: interrupted; journal, artifacts and trace cover the completed cells")
		code = exitDegraded
	} else if failures != nil && failures.Len() > 0 && runErr == nil {
		code = exitDegraded
	}
	if code != exitOK {
		finishProfiles()
		if server != nil {
			server.Close()
		}
		os.Exit(code)
	}
}

// A mode is one way to run compresso-sim: the mode flag that picks it
// ("" for the two modes pickMode picks otherwise), its name in
// messages, and every flag it reads, its own included. A mode reads a
// flag when the flag can change what the mode prints, writes or serves.
type mode struct{ flag, name, flags string }

// Flag groups the mode table shares, as space-separated flag names.
const (
	profileFlags = "cpuprofile memprofile"
	// runFlags are read by every cycle run: -bench, -mix and the demo.
	runFlags = "ops scale seed jobs overlap attribution top-pages inject audit-every " +
		"trace-events json json-summary serve sample-every sample-windows trace-out " + profileFlags
	resilienceFlags = "journal resume retry retry-base retry-cap cell-timeout quarantine " +
		"chaos chaos-seed chaos-delay"
)

// The mode table.
var (
	modePromCheck = &mode{"promcheck", "-promcheck", "promcheck"}
	modeList      = &mode{"list", "-list", "list " + profileFlags}
	modeSystems   = &mode{"systems", "-systems", "systems " + profileFlags}
	modeExp       = &mode{"exp", "-exp", "exp quick seed jobs json serve progress trace-out " +
		resilienceFlags + " " + profileFlags}
	modeFleet = &mode{"fleet", "-fleet", "fleet fleet-nodes fleet-policy quick seed scale jobs json serve " +
		profileFlags}
	modeCapacity = &mode{"", "-bench -capacity", "bench capacity ops scale seed jobs json " + profileFlags}
	modeBench    = &mode{"bench", "-bench", "bench system compare " + runFlags}
	modeMix      = &mode{"mix", "-mix", "mix " + runFlags}
	modeDemo     = &mode{"", "-inject/-audit-every", runFlags}
	modes        = []*mode{modePromCheck, modeList, modeSystems, modeExp, modeFleet,
		modeCapacity, modeBench, modeMix, modeDemo}
)

// reads reports whether mode m reads the named flag.
func (m *mode) reads(name string) bool {
	return slices.Contains(strings.Fields(m.flags), name)
}

// needs lists the flags that mean nothing without another flag.
var needs = [][2]string{
	{"top-pages", "attribution"},
	{"sample-every", "serve"}, // the sampled series reaches only the live server
	{"sample-windows", "sample-every"},
	{"chaos-seed", "chaos"}, {"chaos-delay", "chaos"},
	{"retry-base", "retry"}, {"retry-cap", "retry"},
	{"fleet-nodes", "fleet"}, {"fleet-policy", "fleet"},
	{"capacity", "bench"},
	{"json-summary", "json"},
}

// pickMode picks the mode the set flags name: at most one mode flag
// may be set. -bench with -capacity picks the capacity model, and
// -inject or -audit-every with no mode flag pick the robustness demo.
func pickMode(set map[string]bool) (*mode, error) {
	var picked []string
	m := modeDemo
	for _, md := range modes {
		if md.flag != "" && set[md.flag] {
			picked = append(picked, md.name)
			m = md
		}
	}
	switch {
	case len(picked) > 1:
		return nil, fmt.Errorf("%s each pick a mode; pass one", strings.Join(picked, " and "))
	case m == modeBench && set["capacity"]:
		return modeCapacity, nil
	case len(picked) == 0 && !set["inject"] && !set["audit-every"]:
		return nil, errors.New("no mode flag given; pass one of -promcheck, -list, -systems, -exp, -fleet, -bench, -mix, -inject or -audit-every")
	}
	return m, nil
}

// cli is one checked command line: the mode it runs and every flag
// value, with the name-valued flags resolved.
type cli struct {
	mode *mode

	promCheck, exp, benchName, mixName, system, inject string
	jsonDir, fleetPolicy, cpuProfile, memProfile       string
	serve, traceOut, journal, resume, chaosSpec        string

	quick, compare, overlap, attribution, progress, jsonSummary, quarantine bool

	seed, ops, auditEvery, sampleEvery, chaosSeed  uint64
	seedSet                                        bool
	jobs, scale, topPages, fleetNodes, traceEvents int
	sampleWindows, retry                           int
	capacity                                       float64
	retryBase, retryCap, cellTimeout, chaosDelay   time.Duration

	bench   workload.Profile
	mix     sim.Mix
	systems []sim.System // the -bench run's systems
	faults  faults.Config
	policy  fleet.Policy
	chaos   faults.ChaosConfig
}

// usageExit is the exit code of a parseArgs error: 0 for -h, else 2.
func usageExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	return exitUsage
}

// parseArgs parses and checks a command line before anything runs. A
// malformed flag, two mode flags, a flag the mode does not read, a flag
// without the flag it needs, an out-of-range value and an unknown name
// are each an error, reported on stderr with the usage text.
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{}
	fs.Bool("list", false, "list available experiments")
	fs.StringVar(&c.exp, "exp", "", "experiment to run (or 'all')")
	fs.BoolVar(&c.quick, "quick", false, "reduced footprints and trace lengths")
	fs.Uint64Var(&c.seed, "seed", 42, "random seed (0 is a valid seed when passed explicitly)")
	fs.IntVar(&c.jobs, "jobs", 0, "parallel workers for experiment cells (0 = all cores); output is byte-identical for any value")
	fs.StringVar(&c.benchName, "bench", "", "run one benchmark instead of an experiment")
	fs.StringVar(&c.mixName, "mix", "", "run one Tab. IV mix (e.g. mix1) across all systems")
	fs.Float64Var(&c.capacity, "capacity", 0, "with -bench: run the memory-capacity evaluation at this constrained fraction (e.g. 0.7)")
	fs.StringVar(&c.system, "system", "compresso", "system for -bench: any registered backend (see -systems)")
	fs.Bool("systems", false, "list the registered memory-controller backends")
	fs.Uint64Var(&c.ops, "ops", 200_000, "trace operations for -bench")
	fs.IntVar(&c.scale, "scale", 4, "footprint divisor for -bench")
	fs.BoolVar(&c.compare, "compare", false, "with -bench: run all four systems and compare")
	fs.BoolVar(&c.overlap, "overlap", false, "opt-in overlapped-controller timing: pipeline decompression latency against DRAM service (memctl.overlap_* stats); off preserves the serial model")
	fs.BoolVar(&c.attribution, "attribution", false, "attach the cycle-accounting ledger to -bench/-mix runs: per-component latency breakdown, hot-page profile, attr.* metrics (observation-only; results are byte-identical either way)")
	fs.IntVar(&c.topPages, "top-pages", 0, fmt.Sprintf("with -attribution: bound the hot-page overhead profile to the top N pages (0 uses the default %d)", sim.DefaultTopPages))
	fs.StringVar(&c.inject, "inject", "", "fault-injection spec, e.g. bitflip:1e-6,mdmiss:1e-4 (sites: bitflip, metaflip, chunkdrop, chunkdup, mdmiss)")
	fs.Uint64Var(&c.auditEvery, "audit-every", 0, "run a repairing state audit every N demand ops (0 disables)")
	fs.StringVar(&c.jsonDir, "json", "", "write JSON artifacts for every run/experiment into this directory")

	fs.Bool("fleet", false, "run a multi-node fleet simulation: every node wraps a registered backend with hot/cold tiering and ballooning (see -fleet-nodes, -fleet-policy)")
	fs.IntVar(&c.fleetNodes, "fleet-nodes", 16, "with -fleet: fleet size in nodes")
	fs.StringVar(&c.fleetPolicy, "fleet-policy", "hysteresis", "with -fleet: tier promotion/demotion policy (hysteresis, aggressive, static)")
	fs.IntVar(&c.traceEvents, "trace-events", 0, "retain the newest N controller events in the result trace (omit to disable tracing)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")

	fs.StringVar(&c.serve, "serve", "", "serve live introspection (/metrics, /timeseries, /events, /progress, /healthz, pprof) on this address, e.g. 127.0.0.1:8080 (port 0 picks a free port)")
	fs.Uint64Var(&c.sampleEvery, "sample-every", 0, "snapshot live run metrics every N demand ops into a windowed time series (0 disables; determinism-neutral)")
	fs.IntVar(&c.sampleWindows, "sample-windows", sim.DefaultSampleWindows, "retain the newest N sample windows")
	fs.BoolVar(&c.progress, "progress", false, "render a throttled progress line on stderr during experiment sweeps")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome/Perfetto trace-event JSON file (controller events + experiment cell spans) on exit")
	fs.BoolVar(&c.jsonSummary, "json-summary", false, "shrink -json run artifacts: drop raw trace events, keep trace counts and all metrics")
	fs.StringVar(&c.promCheck, "promcheck", "", "validate a Prometheus text exposition file ('-' for stdin) and exit")

	fs.StringVar(&c.journal, "journal", "", "with -exp: journal completed grid cells into DIR/journal.jsonl; an interrupted run resumed from the same DIR re-executes only the remainder")
	fs.StringVar(&c.resume, "resume", "", "with -exp: resume from an existing journal directory (DIR/journal.jsonl must exist); implies -journal DIR")
	fs.IntVar(&c.retry, "retry", 1, "with -exp: attempts per grid cell (>= 1); transient failures and cell timeouts retry with exponential backoff")
	fs.DurationVar(&c.retryBase, "retry-base", 10*time.Millisecond, "with -exp: backoff before the first retry (doubles per retry, deterministic jitter)")
	fs.DurationVar(&c.retryCap, "retry-cap", 2*time.Second, "with -exp: backoff ceiling")
	fs.DurationVar(&c.cellTimeout, "cell-timeout", 0, "with -exp: per-attempt deadline for one grid cell (0 disables); expiry is retryable")
	fs.BoolVar(&c.quarantine, "quarantine", false, "with -exp: partial-results mode — failing cells are quarantined into a failure manifest and the run completes with exit code 3")
	fs.StringVar(&c.chaosSpec, "chaos", "", "with -exp: chaos spec, e.g. cellpanic:0.02,celltransient:0.1 (sites: cellpanic, celltransient, celldelay, cellkill)")
	fs.Uint64Var(&c.chaosSeed, "chaos-seed", 1, "seed for the chaos decision streams")
	fs.DurationVar(&c.chaosDelay, "chaos-delay", 2*time.Millisecond, "stall injected when the celldelay chaos site fires")

	if err := fs.Parse(args); err != nil {
		return nil, err // the flag package already printed it with the usage
	}
	// A flag is set when the command line passes it; an explicit
	// -flag=false is the default, not a request.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() || f.Value.String() != "false" {
			set[f.Name] = true
		}
	})
	if err := c.check(set); err != nil {
		fmt.Fprintln(stderr, "compresso-sim:", err)
		fs.Usage()
		return nil, err
	}
	return c, nil
}

// check applies the mode table to the set flags, then checks every
// value's range and resolves every name.
func (c *cli) check(set map[string]bool) (err error) {
	for _, n := range needs {
		if set[n[0]] && !set[n[1]] {
			return fmt.Errorf("-%s needs -%s", n[0], n[1])
		}
	}
	if set["system"] && set["compare"] {
		return errors.New("-system and -compare conflict: -compare runs every paper system")
	}
	if c.mode, err = pickMode(set); err != nil {
		return err
	}
	var stray []string
	for name := range set {
		if !c.mode.reads(name) {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("%s runs do not read %s", c.mode.name, strings.Join(stray, ", "))
	}
	c.seedSet = set["seed"]

	// bad records the first failed range check.
	bad := func(failed bool, format string, args ...any) {
		if failed && err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	// obs.NewTracer turns any capacity <= 0 into a no-op tracer.
	bad(set["trace-events"] && c.traceEvents <= 0, "-trace-events must be a positive ring capacity (got %d); omit the flag to disable tracing", c.traceEvents)
	bad(set["capacity"] && !(c.capacity > 0 && c.capacity <= 1), "-capacity must be a constrained memory fraction in (0, 1], got %v", c.capacity)
	bad(c.jobs < 0, "-jobs must be >= 1 (or 0 for all cores), got %d", c.jobs)
	bad(c.scale < 1, "-scale must be >= 1, got %d", c.scale)
	bad(c.ops < 1, "-ops must be >= 1, got %d", c.ops)
	bad(c.topPages < 0, "-top-pages must be >= 0 (0 uses the default %d), got %d", sim.DefaultTopPages, c.topPages)
	bad(c.sampleWindows < 1, "-sample-windows must be >= 1, got %d", c.sampleWindows)
	bad(c.fleetNodes < 1, "-fleet-nodes must be >= 1, got %d", c.fleetNodes)
	bad(c.retry < 1, "-retry is the total attempts per cell and must be >= 1, got %d; use -retry 3 to allow two re-attempts", c.retry)
	bad(c.retryBase < 0, "-retry-base must be >= 0, got %v", c.retryBase)
	bad(c.retryCap < 0, "-retry-cap must be >= 0 (0 = uncapped), got %v", c.retryCap)
	bad(c.cellTimeout < 0, "-cell-timeout must be >= 0 (0 disables the per-cell deadline), got %v", c.cellTimeout)
	bad(c.resume != "" && c.journal != "" && c.resume != c.journal,
		"-resume %s and -journal %s disagree; pass just one (-resume journals into the directory it resumes from)", c.resume, c.journal)
	if err != nil {
		return err
	}

	switch c.mode {
	case modeExp:
		names := []string{"all"}
		for _, e := range experiments.List() {
			names = append(names, e.Name)
		}
		if err := known("exp", "experiment", c.exp, names); err != nil {
			return err
		}
		if c.chaosSpec != "" {
			if c.chaos, err = faults.ParseChaosSpec(c.chaosSpec, c.chaosSeed); err != nil {
				return fmt.Errorf("-chaos: %w", err)
			}
			c.chaos.Delay = c.chaosDelay
		}
		if c.resume != "" {
			if _, err := os.Stat(filepath.Join(c.resume, journal.FileName)); err != nil {
				return fmt.Errorf("-resume %s: no journal to resume (%v); start the run with -journal %s instead", c.resume, err, c.resume)
			}
			c.journal = c.resume // -resume journals into the directory it resumes from
		}
	case modeFleet:
		if c.policy, err = fleet.PolicyByName(c.fleetPolicy); err != nil {
			return fmt.Errorf("-fleet-policy: %w", err)
		}
	case modeMix:
		var names []string
		for _, mx := range sim.Mixes() {
			names = append(names, mx.Name)
			if mx.Name == c.mixName {
				c.mix = mx
			}
		}
		if err := known("mix", "mix", c.mixName, names); err != nil {
			return err
		}
	case modeDemo:
		c.benchName = "gcc" // the robustness demo runs gcc on compresso
	}
	if c.mode == modeCapacity || c.mode == modeBench || c.mode == modeDemo {
		if c.bench, err = workload.ByName(c.benchName); err != nil {
			return fmt.Errorf("-bench: %w", err)
		}
	}
	if c.mode == modeBench || c.mode == modeDemo {
		c.systems = []sim.System{sim.System(c.system)}
		if c.compare {
			c.systems = sim.Systems()
		} else if err := known("system", "system", c.system, memctl.BackendNames()); err != nil {
			return err
		}
	}
	if c.mode.reads("inject") {
		if c.faults, err = parseInject(c.inject, c.seed); err != nil {
			return fmt.Errorf("-inject: %w", err)
		}
	}
	return nil
}

// known checks the value of a name-valued flag against the names it
// may take.
func known(flag, noun, name string, names []string) error {
	if !slices.Contains(names, name) {
		return fmt.Errorf("-%s: unknown %s %q (have %s)", flag, noun, name, strings.Join(names, ", "))
	}
	return nil
}

// writeFailureManifest reports quarantined cells: one stderr line per
// failure and, under -json, a "failures" artifact carrying the full
// manifest.
func writeFailureManifest(failures *parallel.FailureLog, jsonDir string) {
	if failures == nil || failures.Len() == 0 {
		return
	}
	all := failures.All()
	fmt.Fprintf(os.Stderr, "compresso-sim: %d cell(s) quarantined:\n", len(all))
	for _, f := range all {
		fmt.Fprintf(os.Stderr, "  %s\n", f)
	}
	if jsonDir == "" {
		return
	}
	path, err := obs.WriteArtifact(jsonDir, obs.Artifact{
		Kind: "failures", Name: "quarantine", Data: all,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compresso-sim: writing failure manifest:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "compresso-sim: wrote failure manifest %s\n", path)
}

// injectSites are the fault sites a compresso-sim run rolls: every
// site but tracetrunc, which tears trace files, and compresso-sim
// writes none, so a rate there would be accepted and do nothing.
var injectSites = []faults.Site{faults.DataBitFlip, faults.MetaBitFlip,
	faults.ChunkDrop, faults.ChunkDup, faults.MDCacheMiss}

// parseInject parses an -inject spec, rejecting a non-zero rate at a
// site outside injectSites, and suggesting only injectSites.
func parseInject(spec string, seed uint64) (faults.Config, error) {
	return faults.ParseSpec(spec, seed, injectSites)
}

// runFleet executes the -fleet mode: a mixed-backend fleet under the
// chosen tier policy, with the rollup table on stdout and a
// kind-"fleet" artifact under -json.
func runFleet(c *cli) {
	specs, err := fleet.Mix(c.fleetNodes, fleet.Backends, c.seed)
	if err != nil {
		fatal(err)
	}
	epochs, opsPerEpoch := 4, uint64(2000)
	if c.quick {
		epochs, opsPerEpoch = 3, 500
	}
	res, err := fleet.Run(fleet.Config{
		Nodes:          specs,
		Policy:         c.policy,
		Epochs:         epochs,
		OpsPerEpoch:    opsPerEpoch,
		FootprintScale: c.scale,
		Jobs:           c.jobs,
	})
	if err != nil {
		fatal(err)
	}
	snap := res.Registry().Snapshot()
	name := fmt.Sprintf("%s_%dn", c.policy.Name, c.fleetNodes)
	publishRun("fleet_"+name, snap, obs.Trace{}, obs.AttributionSnapshot{})
	c.writeArtifact("fleet", name, runPayload{Result: res, Metrics: snap})

	fmt.Printf("fleet: %d nodes over %s, policy %s, %d epochs x %d ops (scale %d)\n",
		c.fleetNodes, strings.Join(fleet.Backends, "/"), c.policy.Name, epochs, opsPerEpoch, c.scale)
	tbl := stats.NewTable("node", "bench", "backend", "ratio", "hot-pgs", "promo", "demo", "balloon-pgs")
	for _, n := range res.Nodes {
		tbl.AddRow(n.ID, n.Bench, n.Backend, n.Ratio, n.HotPages,
			n.Promotions, n.Demotions, n.BalloonPages)
	}
	tbl.Render(os.Stdout)
	fmt.Printf("rollup: ratio %.3f | hot-hit %.3f | churn %.3f/kop | moved %.2f MB | balloon %d pages\n",
		res.AggRatio, res.HotHitRate, res.ChurnPerKOp,
		float64(res.MoveBytes)/(1<<20), res.BalloonPages)
	fmt.Printf("tco/month: memory $%.4f | reclaimed $%.4f | energy $%.6f\n",
		res.MemoryDollars, res.BalloonDollars, res.EnergyDollars)
}

// runPromCheck validates a Prometheus text exposition file (the
// -promcheck mode used by `make obs-smoke`).
func runPromCheck(path string) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	if err := obshttp.CheckExposition(r); err != nil {
		fatal(fmt.Errorf("promcheck %s: %v", path, err))
	}
	fmt.Println("promcheck: ok")
}

// writeTraceOut exports the -trace-out Perfetto/Chrome trace: the last
// run's controller events (pid 1, needs -trace-events), the experiment
// grids' per-cell spans (pid 2), and the attribution ledger's
// cumulative exposed-cycle counter tracks (pid 3, needs -attribution).
func writeTraceOut(path string, tracker *progress.Tracker) {
	events := lastTrace.ChromeEvents(1)
	if tracker != nil {
		events = append(events, tracker.ChromeEvents(2)...)
	}
	if lastAttr.Accesses > 0 {
		events = append(events, lastAttr.ChromeCounters(3)...)
	}
	if err := obs.WriteChromeTrace(path, events); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "compresso-sim: wrote trace %s (%d events)\n", path, len(events))
}

// Profiling and live-server state shared by the runner helpers. fatal
// exits with os.Exit (skipping defers), so it flushes the profiles
// explicitly; finishProfiles is idempotent to allow both paths.
var (
	stopCPUProfile  func()
	heapProfilePath string
	server          *obshttp.Server
	// lastTrace is the most recent run's controller-event trace, the
	// pid-1 half of -trace-out; lastAttr is the matching attribution
	// ledger, exported as pid-3 counter tracks.
	lastTrace obs.Trace
	lastAttr  obs.AttributionSnapshot
)

func finishProfiles() {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	if heapProfilePath != "" {
		path := heapProfilePath
		heapProfilePath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compresso-sim:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "compresso-sim:", err)
		}
	}
}

// runPayload is the -json payload for ad-hoc runs: the raw result
// plus the flattened registry snapshot (stable metric names, the form
// perf tracking diffs against).
type runPayload struct {
	Result  any          `json:"result"`
	Metrics obs.Snapshot `json:"metrics"`
}

// writeArtifact serializes an ad-hoc run result under -json DIR.
func (c *cli) writeArtifact(kind, name string, data any) {
	if c.jsonDir == "" {
		return
	}
	path, err := obs.WriteArtifact(c.jsonDir, obs.Artifact{Kind: kind, Name: name, Data: data})
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func fatal(err error) {
	finishProfiles()
	fmt.Fprintln(os.Stderr, "compresso-sim:", err)
	os.Exit(1)
}

func runCapacity(c *cli) {
	prof, frac := c.bench, c.capacity
	cfg := capacity.DefaultConfig()
	cfg.Ops = c.ops
	cfg.FootprintScale = c.scale
	cfg.Seed = c.seed
	cfg.Jobs = c.jobs
	out := capacity.Profile(prof.Name, []workload.Profile{prof}, cfg).At(frac)
	c.writeArtifact("capacity", fmt.Sprintf("%s_%.0f", prof.Name, frac*100), out)
	fmt.Printf("%s at %.0f%% of footprint (%d MB scaled):\n",
		prof.Name, frac*100, out.FootprintB>>20)
	tbl := stats.NewTable("system", "rel-perf", "faults", "mean-ratio")
	for s := capacity.Sizer(0); s < capacity.NSizers; s++ {
		tbl.AddRow(s.String(), out.RelPerf[s], out.Faults[s], out.MeanRatio[s])
	}
	tbl.AddRow("unconstrained", out.Unconstrained, 0, "")
	tbl.Render(os.Stdout)
}

// attachLive wires the observation flags into a run config: the
// -sample-every time-series sampler (feeding the live server when
// -serve is active) and the -attribution cycle-accounting ledger.
func (c *cli) attachLive(cfg *sim.Config, name string) {
	cfg.SampleEvery = c.sampleEvery
	cfg.SampleWindows = c.sampleWindows
	cfg.Attribution = c.attribution
	cfg.TopPages = c.topPages
	if server != nil && cfg.SampleEvery > 0 {
		server.AttachRun(name, cfg.SampleEvery)
		cfg.OnSample = server.SampleRun
	}
}

// publishRun pushes a finished run's snapshot, trace and attribution
// ledger to the live server and records the trace/ledger for
// -trace-out.
func publishRun(name string, snap obs.Snapshot, trace obs.Trace, attr obs.AttributionSnapshot) {
	lastTrace = trace
	lastAttr = attr
	if server != nil {
		server.PublishRun(name, snap)
		server.PublishTrace(trace)
		if attr.Accesses > 0 {
			server.PublishAttribution(attr)
		}
	}
}

// printObsSummary surfaces the observability layer's end-of-run
// accounting: the event ring's drop counts (so bounded-ring truncation
// is visible instead of silent) and per-histogram percentiles.
func printObsSummary(snap obs.Snapshot, trace obs.Trace) {
	if trace.Capacity > 0 {
		fmt.Printf("trace: %d events emitted, %d retained, %d dropped (ring capacity %d)\n",
			trace.Total, len(trace.Events), trace.Dropped, trace.Capacity)
	}
	if len(snap.Hists) == 0 {
		return
	}
	names := make([]string, 0, len(snap.Hists))
	for n := range snap.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	tbl := stats.NewTable("histogram", "count", "p50", "p90", "p99")
	for _, n := range names {
		h := snap.Hists[n]
		p50, _ := h.Percentile(50)
		p90, _ := h.Percentile(90)
		p99, _ := h.Percentile(99)
		tbl.AddRow(n, h.Total, p50, p90, p99)
	}
	tbl.Render(os.Stdout)
}

// runArtifact builds the runPayload for -json, honoring -json-summary
// by dropping the raw trace events (counts survive, so truncation
// stays visible) from the serialized copy.
func (c *cli) runArtifact(res any, snap obs.Snapshot) runPayload {
	if c.jsonSummary {
		switch r := res.(type) {
		case sim.Result:
			r.Trace.Events = nil
			res = r
		case sim.MultiResult:
			r.Trace.Events = nil
			res = r
		}
	}
	return runPayload{Result: res, Metrics: snap}
}

// printRobustness reports what the injector and auditor did, when
// either was active.
func printRobustness(mem memctl.Stats, totals faults.Totals, outcome audit.Outcome) {
	if summary := mem.CorruptionSummary(); summary != "" {
		fmt.Println("robustness:", summary)
	}
	if totals.Injected() > 0 || totals.DRAMReads+totals.DRAMWrites > 0 {
		fmt.Println("injector:", totals.String())
	}
	if outcome.Runs > 0 {
		fmt.Println("auditor:", outcome.String())
	}
}

// config returns system s's cycle-run config, with the -inject /
// -audit-every / -trace-events robustness settings applied.
func (c *cli) config(s sim.System) sim.Config {
	cfg := sim.DefaultConfig(s)
	cfg.Ops = c.ops
	cfg.FootprintScale = c.scale
	cfg.Seed = c.seed
	cfg.Overlap = c.overlap
	cfg.Inject = c.faults
	cfg.AuditEvery = c.auditEvery
	cfg.TraceEvents = c.traceEvents
	return cfg
}

// runView is what the shared end-of-run reporting reads from a
// sim.Result or sim.MultiResult.
type runView struct {
	snap   obs.Snapshot
	trace  obs.Trace
	attr   obs.AttributionSnapshot
	mem    memctl.Stats
	faults faults.Totals
	audit  audit.Outcome
}

// compareSystems runs one workload (profs, named label) on each of
// systems through run. With more than one system the runs share one
// generated and sized image (sim.MixAssets); they are independent, so
// they fan out across -jobs workers. In system order it then publishes
// each run and writes its kind artifact, hands the results to render
// and prints the last run's robustness, observability and attribution
// summaries, so output is byte-identical at any -jobs.
func compareSystems[R any](c *cli, kind, label string, profs []workload.Profile, systems []sim.System,
	run func(sim.Config) (R, runView), render func([]R)) {
	var assets *sim.MixAssets
	if len(systems) > 1 {
		assets = sim.PrepareAssets(profs, c.config(systems[0]), compress.BPC{}, c.jobs)
	}
	type systemRun struct {
		name string
		res  R
		view runView
	}
	runs := parallel.Map(parallel.Workers(c.jobs, len(systems)), len(systems), func(i int) systemRun {
		cfg := c.config(systems[i])
		cfg.Assets = assets
		name := label + "_" + systems[i].String()
		c.attachLive(&cfg, name)
		res, view := run(cfg)
		return systemRun{name: name, res: res, view: view}
	})
	results := make([]R, len(runs))
	for i, r := range runs {
		publishRun(r.name, r.view.snap, r.view.trace, r.view.attr)
		c.writeArtifact(kind, r.name, c.runArtifact(r.res, r.view.snap))
		results[i] = r.res
	}
	render(results)
	last := runs[len(runs)-1].view
	printRobustness(last.mem, last.faults, last.audit)
	printObsSummary(last.snap, last.trace)
	printAttribution(last.attr)
}

func runMixCLI(c *cli) {
	mix := c.mix
	profs, err := mix.Profiles()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mix %s: %v\n", mix.Name, mix.Benches)
	systems := sim.Systems()
	compareSystems(c, "mix", mix.Name, profs, systems, func(cfg sim.Config) (sim.MultiResult, runView) {
		res := sim.RunMix(mix.Name, profs, cfg)
		return res, runView{res.Registry().Snapshot(), res.Trace, res.Attribution, res.Mem, res.Faults, res.Audit}
	}, func(results []sim.MultiResult) {
		tbl := stats.NewTable("system", "weighted-speedup", "ratio", "extra-accesses")
		var base sim.MultiResult
		for i, res := range results {
			if systems[i] == sim.Uncompressed {
				base = res
				tbl.AddRow(res.System, 1.0, res.Ratio, res.Mem.RelativeExtra())
				continue
			}
			ws, err := res.WeightedSpeedup(base)
			if err != nil {
				fatal(err)
			}
			tbl.AddRow(res.System, ws, res.Ratio, res.Mem.RelativeExtra())
		}
		tbl.Render(os.Stdout)
	})
}

func runBench(c *cli) {
	prof := c.bench
	compareSystems(c, "bench", prof.Name, []workload.Profile{prof}, c.systems, func(cfg sim.Config) (sim.Result, runView) {
		res := sim.RunSingle(prof, cfg)
		return res, runView{res.Registry().Snapshot(), res.Trace, res.Attribution, res.Mem, res.Faults, res.Audit}
	}, func(results []sim.Result) {
		fmt.Printf("benchmark %s (%d pages footprint / scale %d, %d ops)\n",
			prof.Name, prof.FootprintPages, c.scale, c.ops)
		tbl := stats.NewTable("system", "cycles", "ipc", "ratio", "extra-accesses", "l3-miss", "md-hit")
		for _, res := range results {
			tbl.AddRow(res.System, res.Cycles, res.IPC, res.Ratio,
				res.Mem.RelativeExtra(), res.L3MissRate, res.MDCache.HitRate())
		}
		tbl.Render(os.Stdout)
	})
}

// printAttribution renders the -attribution end-of-run breakdown:
// per-component exposed/hidden cycles (components that never charged
// are omitted) and the hot-page overhead profile.
func printAttribution(a obs.AttributionSnapshot) {
	if a.Accesses == 0 {
		return
	}
	fmt.Printf("attribution: %d accesses, %d charged cycles, %d conservation violations\n",
		a.Accesses, a.ChargedCycles, a.Violations)
	if a.FirstViolation != "" {
		fmt.Println("  first violation:", a.FirstViolation)
	}
	tbl := stats.NewTable("component", "exposed-cycles", "share", "hidden-cycles", "charges")
	for _, c := range a.Components {
		if c.ExposedCycles == 0 && c.HiddenCycles == 0 {
			continue
		}
		var share float64
		if a.ChargedCycles > 0 {
			share = float64(c.ExposedCycles) / float64(a.ChargedCycles)
		}
		tbl.AddRow(c.Component, c.ExposedCycles, share, c.HiddenCycles, c.Charges)
	}
	tbl.Render(os.Stdout)
	if len(a.HotPages) == 0 {
		return
	}
	fmt.Println("hottest pages by attribution overhead:")
	tbl = stats.NewTable("page", "overhead-cycles", "accesses", "err-bound")
	for _, p := range a.HotPages {
		tbl.AddRow(fmt.Sprintf("%#x", p.Page), p.OverheadCycles, p.Accesses, p.ErrorBound)
	}
	tbl.Render(os.Stdout)
}
