// compresso-sim runs the paper's experiments (tables and figures) or
// ad-hoc single-benchmark simulations.
//
// Usage:
//
//	compresso-sim -list
//	compresso-sim -systems
//	compresso-sim -exp fig2 [-quick] [-seed N]
//	compresso-sim -exp all [-quick]
//	compresso-sim -bench gcc -system <any registered backend> [-ops N] [-scale N]
//	compresso-sim -bench gcc -attribution [-top-pages N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("exp", "", "experiment to run (or 'all')")
		quick    = flag.Bool("quick", false, "reduced footprints and trace lengths")
		seed     = flag.Uint64("seed", 42, "random seed (0 is a valid seed when passed explicitly)")
		jobs     = flag.Int("jobs", 0, "parallel workers for experiment cells (0 = all cores); output is byte-identical for any value")
		bench    = flag.String("bench", "", "run one benchmark instead of an experiment")
		mix      = flag.String("mix", "", "run one Tab. IV mix (e.g. mix1) across all systems")
		capFrac  = flag.Float64("capacity", 0, "with -bench: run the memory-capacity evaluation at this constrained fraction (e.g. 0.7)")
		system   = flag.String("system", "compresso", "system for -bench: any registered backend (see -systems)")
		systemsF = flag.Bool("systems", false, "list the registered memory-controller backends")
		ops      = flag.Uint64("ops", 200_000, "trace operations for -bench")
		scale    = flag.Int("scale", 4, "footprint divisor for -bench")
		compare  = flag.Bool("compare", false, "with -bench: run all four systems and compare")
		overlap  = flag.Bool("overlap", false, "opt-in overlapped-controller timing: pipeline decompression latency against DRAM service (memctl.overlap_* stats); off preserves the serial model")
		attrF    = flag.Bool("attribution", false, "attach the cycle-accounting ledger to -bench/-mix runs: per-component latency breakdown, hot-page profile, attr.* metrics (observation-only; results are byte-identical either way)")
		topPages = flag.Int("top-pages", 0, fmt.Sprintf("with -attribution: bound the hot-page overhead profile to the top N pages (0 uses the default %d)", sim.DefaultTopPages))
		inject   = flag.String("inject", "", "fault-injection spec, e.g. bitflip:1e-6,mdmiss:1e-4 (sites: bitflip, metaflip, chunkdrop, chunkdup, mdmiss)")
		auditEv  = flag.Uint64("audit-every", 0, "run a repairing state audit every N demand ops (0 disables)")
		jsonDir  = flag.String("json", "", "write JSON artifacts for every run/experiment into this directory")

		fleetF      = flag.Bool("fleet", false, "run a multi-node fleet simulation: every node wraps a registered backend with hot/cold tiering and ballooning (see -fleet-nodes, -fleet-policy)")
		fleetNodes  = flag.Int("fleet-nodes", 16, "with -fleet: fleet size in nodes")
		fleetPolicy = flag.String("fleet-policy", "hysteresis", "with -fleet: tier promotion/demotion policy (hysteresis, aggressive, static)")
		traceEv     = flag.Int("trace-events", 0, "retain the newest N controller events in the result trace (omit to disable tracing)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")

		serve     = flag.String("serve", "", "serve live introspection (/metrics, /timeseries, /events, /progress, /healthz, pprof) on this address, e.g. 127.0.0.1:8080 (port 0 picks a free port)")
		sampleEv  = flag.Uint64("sample-every", 0, "snapshot live run metrics every N demand ops into a windowed time series (0 disables; determinism-neutral)")
		sampleWin = flag.Int("sample-windows", sim.DefaultSampleWindows, "retain the newest N sample windows")
		progressF = flag.Bool("progress", false, "render a throttled progress line on stderr during experiment sweeps")
		traceOut  = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (controller events + experiment cell spans) on exit")
		jsonSum   = flag.Bool("json-summary", false, "shrink -json run artifacts: drop raw trace events, keep trace counts and all metrics")
		promCheck = flag.String("promcheck", "", "validate a Prometheus text exposition file ('-' for stdin) and exit")

		journalDir = flag.String("journal", "", "with -exp: journal completed grid cells into DIR/journal.jsonl; an interrupted run resumed from the same DIR re-executes only the remainder")
		resumeDir  = flag.String("resume", "", "with -exp: resume from an existing journal directory (DIR/journal.jsonl must exist); implies -journal DIR")
		retryN     = flag.Int("retry", 1, "with -exp: attempts per grid cell (>= 1); transient failures and cell timeouts retry with exponential backoff")
		retryBase  = flag.Duration("retry-base", 10*time.Millisecond, "with -exp: backoff before the first retry (doubles per retry, deterministic jitter)")
		retryCap   = flag.Duration("retry-cap", 2*time.Second, "with -exp: backoff ceiling")
		cellTO     = flag.Duration("cell-timeout", 0, "with -exp: per-attempt deadline for one grid cell (0 disables); expiry is retryable")
		quarantine = flag.Bool("quarantine", false, "with -exp: partial-results mode — failing cells are quarantined into a failure manifest and the run completes with exit code 3")
		chaosSpec  = flag.String("chaos", "", "with -exp: chaos spec, e.g. cellpanic:0.02,celltransient:0.1 (sites: cellpanic, celltransient, celldelay, cellkill)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "seed for the chaos decision streams")
		chaosDelay = flag.Duration("chaos-delay", 2*time.Millisecond, "stall injected when the celldelay chaos site fires")
	)
	flag.Parse()

	if *promCheck != "" {
		runPromCheck(*promCheck)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
		defer finishProfiles()
	}
	if *memProf != "" {
		heapProfilePath = *memProf
		defer finishProfiles()
	}
	traceEvents = *traceEv
	artifactDir = *jsonDir
	sampleEvery = *sampleEv
	sampleWindows = *sampleWin
	summaryArtifacts = *jsonSum
	attributionOn = *attrF
	topPagesN = *topPages

	// An explicit -seed makes any value authoritative, including 0
	// (which would otherwise alias the default 42); an explicit
	// -trace-events must be a usable ring capacity.
	seedSet, traceSet, jobsSet, capSet := false, false, false, false
	fleetNodesSet, fleetPolicySet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "trace-events":
			traceSet = true
		case "jobs":
			jobsSet = true
		case "capacity":
			capSet = true
		case "fleet-nodes":
			fleetNodesSet = true
		case "fleet-policy":
			fleetPolicySet = true
		}
	})
	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "compresso-sim:", err)
		flag.Usage()
		os.Exit(exitUsage)
	}
	if err := validateTraceEvents(traceSet, *traceEv); err != nil {
		usageErr(err)
	}
	if err := validateCapacity(capSet, *capFrac, *bench); err != nil {
		usageErr(err)
	}
	rf := resilienceFlags{
		Exp: *exp, JobsSet: jobsSet, Jobs: *jobs,
		Journal: *journalDir, Resume: *resumeDir,
		Retry: *retryN, RetryBase: *retryBase, RetryCap: *retryCap,
		CellTimeout: *cellTO, Quarantine: *quarantine, Chaos: *chaosSpec,
	}
	if err := rf.validate(); err != nil {
		usageErr(err)
	}
	ff := fleetFlags{
		Enabled: *fleetF, Nodes: *fleetNodes, NodesSet: fleetNodesSet,
		Policy: *fleetPolicy, PolicySet: fleetPolicySet,
	}
	if err := ff.validate(); err != nil {
		usageErr(err)
	}

	// Live-introspection sinks. All of them observe the run from the
	// outside (snapshot copies, wall-clock spans); none feeds back into
	// results, so artifacts are byte-identical with or without them
	// (DESIGN.md §9).
	var tracker *progress.Tracker
	var term *progress.Terminal
	if *serve != "" || *progressF || *traceOut != "" {
		tracker = progress.NewTracker()
	}
	if *progressF {
		term = progress.NewTerminal(tracker, os.Stderr)
	}
	var sinks []parallel.Progress
	if tracker != nil {
		sinks = append(sinks, tracker)
	}
	if *serve != "" {
		server = obshttp.New(tracker)
		addr, err := server.Start(*serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "compresso-sim: serving live introspection on http://%s\n", addr)
		defer server.Close()
		sinks = append(sinks, server)
	}
	if term != nil {
		sinks = append(sinks, term)
	}

	expOpts := experiments.Options{
		Out: os.Stdout, Quick: *quick,
		Seed: *seed, SeedSet: seedSet, Jobs: *jobs,
		JSONDir:  *jsonDir,
		Progress: progress.Multi(sinks...),
	}

	// Resilience wiring for experiment runs (DESIGN.md §11): a signal-
	// canceled context so SIGINT/SIGTERM drain the grids gracefully
	// (journal, artifacts and trace for completed cells still flush; a
	// second signal kills immediately), plus the retry / quarantine /
	// chaos / journal options.
	var (
		expCtx   context.Context
		jrnl     *journal.Journal
		failures *parallel.FailureLog
		chaos    *faults.Chaos
	)
	if *exp != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			stop() // restore default handling: a second signal terminates
		}()
		expCtx = ctx
		expOpts.Ctx = ctx
		expOpts.CellTimeout = *cellTO
		if *retryN > 1 {
			expOpts.Retry = parallel.RetryPolicy{
				MaxAttempts: *retryN, BaseBackoff: *retryBase,
				MaxBackoff: *retryCap, Seed: *seed,
			}
		}
		expOpts.Quarantine = *quarantine
		if *quarantine {
			failures = &parallel.FailureLog{}
			expOpts.Failures = failures
		}
		if *chaosSpec != "" {
			ccfg, err := faults.ParseChaosSpec(*chaosSpec, *chaosSeed)
			if err != nil {
				usageErr(err)
			}
			ccfg.Delay = *chaosDelay
			chaos = faults.NewChaos(ccfg)
			expOpts.Chaos = chaos
		}
		if dir := rf.journalDir(); dir != "" {
			j, err := journal.Open(dir)
			if err != nil {
				fatal(err)
			}
			jrnl = j
			expOpts.Journal = j
		}
	}

	runOpts := runOptions{ops: *ops, scale: *scale, seed: *seed, inject: *inject,
		auditEvery: *auditEv, jobs: *jobs, overlap: *overlap}
	var runErr error
	switch {
	case *list:
		tbl := stats.NewTable("experiment", "description")
		for _, e := range experiments.List() {
			tbl.AddRow(e.Name, e.Desc)
		}
		tbl.Render(os.Stdout)
	case *systemsF:
		tbl := stats.NewTable("system", "description")
		for _, b := range memctl.Backends() {
			tbl.AddRow(b.Name, b.Desc)
		}
		tbl.Render(os.Stdout)
	case *exp == "all":
		// RunAll recovers from per-experiment panics so one broken
		// artifact does not kill the batch.
		runErr = experiments.RunAll(expOpts)
	case *exp != "":
		runErr = experiments.Run(*exp, expOpts)
	case *fleetF:
		runFleet(*fleetNodes, *fleetPolicy, *quick, *seed, *scale, *jobs)
	case *bench != "" && *capFrac > 0:
		runCapacity(*bench, *capFrac, *ops, *scale, *seed, *jobs)
	case *bench != "":
		runBench(*bench, *system, *compare, runOpts)
	case *mix != "":
		runMixCLI(*mix, runOpts)
	case *inject != "" || *auditEv > 0:
		// Robustness demo: injection/auditing flags alone run the
		// default benchmark on the Compresso system.
		runBench("gcc", "compresso", false, runOpts)
	default:
		flag.Usage()
		os.Exit(2)
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
	if *traceOut != "" {
		writeTraceOut(*traceOut, tracker)
	}
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "compresso-sim: chaos: %s\n", chaos.Totals())
	}
	writeFailureManifest(failures, *jsonDir)

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

// validateTraceEvents rejects an explicitly-set non-positive
// -trace-events value. Before this check, `-trace-events 0` and
// negative values were silently swallowed: obs.NewTracer returns a
// nil (no-op) tracer for any capacity <= 0, so a typo like
// `-trace-events -100` recorded nothing without a diagnostic. Only
// omitting the flag disables tracing now.
func validateTraceEvents(set bool, n int) error {
	if set && n <= 0 {
		return fmt.Errorf("-trace-events must be a positive ring capacity (got %d); omit the flag to disable tracing", n)
	}
	return nil
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

// validateCapacity rejects a -capacity that would be ignored or
// meaningless: it must be a constrained fraction in (0, 1] of a -bench
// run.
func validateCapacity(set bool, frac float64, bench string) error {
	if !set {
		return nil
	}
	if !(frac > 0 && frac <= 1) {
		return fmt.Errorf("-capacity must be a constrained memory fraction in (0, 1], got %v", frac)
	}
	if bench == "" {
		return fmt.Errorf("-capacity only applies to -bench runs; add -bench NAME")
	}
	return nil
}

// resilienceFlags is the validated view of the resilience-related CLI
// flags; validate turns every nonsensical combination into an
// actionable flag error (exit 2) instead of a silent misbehavior.
type resilienceFlags struct {
	Exp         string
	JobsSet     bool
	Jobs        int
	Journal     string
	Resume      string
	Retry       int
	RetryBase   time.Duration
	RetryCap    time.Duration
	CellTimeout time.Duration
	Quarantine  bool
	Chaos       string
}

// journalDir resolves the run's journal directory (-resume implies
// journaling into the resumed directory).
func (f resilienceFlags) journalDir() string {
	if f.Resume != "" {
		return f.Resume
	}
	return f.Journal
}

func (f resilienceFlags) validate() error {
	if f.JobsSet && f.Jobs < 0 {
		return fmt.Errorf("-jobs must be >= 1 (or 0 for all cores), got %d", f.Jobs)
	}
	if f.Retry < 1 {
		return fmt.Errorf("-retry is the total attempts per cell and must be >= 1, got %d; use -retry 3 to allow two re-attempts", f.Retry)
	}
	if f.RetryBase < 0 {
		return fmt.Errorf("-retry-base must be >= 0, got %v", f.RetryBase)
	}
	if f.RetryCap < 0 {
		return fmt.Errorf("-retry-cap must be >= 0 (0 = uncapped), got %v", f.RetryCap)
	}
	if f.CellTimeout < 0 {
		return fmt.Errorf("-cell-timeout must be >= 0 (0 disables the per-cell deadline), got %v", f.CellTimeout)
	}
	if f.Resume != "" && f.Journal != "" && f.Resume != f.Journal {
		return fmt.Errorf("-resume %s and -journal %s disagree; pass just one (-resume journals into the directory it resumes from)", f.Resume, f.Journal)
	}
	expOnly := ""
	switch {
	case f.Resume != "":
		expOnly = "-resume"
	case f.Journal != "":
		expOnly = "-journal"
	case f.Quarantine:
		expOnly = "-quarantine"
	case f.Chaos != "":
		expOnly = "-chaos"
	case f.CellTimeout > 0:
		expOnly = "-cell-timeout"
	case f.Retry > 1:
		expOnly = "-retry"
	}
	if expOnly != "" && f.Exp == "" {
		return fmt.Errorf("%s only applies to experiment runs; add -exp <name> or -exp all", expOnly)
	}
	if f.Resume != "" {
		if _, err := os.Stat(filepath.Join(f.Resume, journal.FileName)); err != nil {
			return fmt.Errorf("-resume %s: no journal to resume (%v); start the run with -journal %s instead", f.Resume, err, f.Resume)
		}
	}
	return nil
}

// fleetFlags is the validated view of the -fleet flag family; like
// resilienceFlags, validate turns every nonsensical combination into
// an actionable flag error (exit 2).
type fleetFlags struct {
	Enabled   bool
	Nodes     int
	NodesSet  bool
	Policy    string
	PolicySet bool
}

func (f fleetFlags) validate() error {
	if !f.Enabled {
		switch {
		case f.NodesSet:
			return fmt.Errorf("-fleet-nodes only applies to fleet runs; add -fleet")
		case f.PolicySet:
			return fmt.Errorf("-fleet-policy only applies to fleet runs; add -fleet")
		}
		return nil
	}
	if f.Nodes < 1 {
		return fmt.Errorf("-fleet-nodes must be >= 1, got %d", f.Nodes)
	}
	if _, err := fleet.PolicyByName(f.Policy); err != nil {
		return fmt.Errorf("-fleet-policy: %w", err)
	}
	return nil
}

// runFleet executes the -fleet mode: a mixed-backend fleet under the
// chosen tier policy, with the rollup table on stdout and a
// kind-"fleet" artifact under -json.
func runFleet(nodes int, policyName string, quick bool, seed uint64, scale, jobs int) {
	pol, err := fleet.PolicyByName(policyName)
	if err != nil {
		fatal(err)
	}
	specs, err := fleet.Mix(nodes, fleet.Backends, seed)
	if err != nil {
		fatal(err)
	}
	epochs, opsPerEpoch := 4, uint64(2000)
	if quick {
		epochs, opsPerEpoch = 3, 500
	}
	res, err := fleet.Run(fleet.Config{
		Nodes:          specs,
		Policy:         pol,
		Epochs:         epochs,
		OpsPerEpoch:    opsPerEpoch,
		FootprintScale: scale,
		Jobs:           jobs,
	})
	if err != nil {
		fatal(err)
	}
	snap := res.Registry().Snapshot()
	name := fmt.Sprintf("%s_%dn", pol.Name, nodes)
	publishRun("fleet_"+name, snap, obs.Trace{}, obs.AttributionSnapshot{})
	writeRunArtifact("fleet", name, runArtifact(res, snap))

	fmt.Printf("fleet: %d nodes over %s, policy %s, %d epochs x %d ops (scale %d)\n",
		nodes, strings.Join(fleet.Backends, "/"), pol.Name, epochs, opsPerEpoch, scale)
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

// Profiling and artifact state shared by the runner helpers. fatal
// exits with os.Exit (skipping defers), so it flushes the profiles
// explicitly; finishProfiles is idempotent to allow both paths.
var (
	stopCPUProfile   func()
	heapProfilePath  string
	traceEvents      int
	artifactDir      string
	sampleEvery      uint64
	sampleWindows    int
	summaryArtifacts bool
	server           *obshttp.Server
	attributionOn    bool
	topPagesN        int
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

// writeRunArtifact serializes an ad-hoc run result under -json DIR.
func writeRunArtifact(kind, name string, data any) {
	if artifactDir == "" {
		return
	}
	path, err := obs.WriteArtifact(artifactDir, obs.Artifact{Kind: kind, Name: name, Data: data})
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

func parseSystem(name string) (sim.System, error) {
	if _, ok := memctl.LookupBackend(name); ok {
		return sim.System(name), nil
	}
	return "", fmt.Errorf("unknown system %q (registered: %s)",
		name, strings.Join(memctl.BackendNames(), ", "))
}

func runCapacity(bench string, frac float64, ops uint64, scale int, seed uint64, jobs int) {
	prof, err := workload.ByName(bench)
	if err != nil {
		fatal(err)
	}
	cfg := capacity.DefaultConfig()
	cfg.Ops = ops
	cfg.FootprintScale = scale
	cfg.Seed = seed
	cfg.Jobs = jobs
	out := capacity.Profile(prof.Name, []workload.Profile{prof}, cfg).At(frac)
	writeRunArtifact("capacity", fmt.Sprintf("%s_%.0f", prof.Name, frac*100), out)
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
func attachLive(cfg *sim.Config, name string) {
	cfg.SampleEvery = sampleEvery
	cfg.SampleWindows = sampleWindows
	cfg.Attribution = attributionOn
	cfg.TopPages = topPagesN
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
func runArtifact(res any, snap obs.Snapshot) runPayload {
	if summaryArtifacts {
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

// runOptions carries the flags every ad-hoc -bench / -mix run shares.
type runOptions struct {
	ops        uint64
	scale      int
	seed       uint64
	inject     string
	auditEvery uint64
	jobs       int
	overlap    bool
}

// config returns system s's run config under o, with the -inject /
// -audit-every / -trace-events robustness settings applied.
func (o runOptions) config(s sim.System) sim.Config {
	cfg := sim.DefaultConfig(s)
	cfg.Ops = o.ops
	cfg.FootprintScale = o.scale
	cfg.Seed = o.seed
	cfg.Overlap = o.overlap
	fc, err := parseInject(o.inject, cfg.Seed)
	if err != nil {
		fatal(err)
	}
	cfg.Inject = fc
	cfg.AuditEvery = o.auditEvery
	cfg.TraceEvents = traceEvents
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
func compareSystems[R any](kind, label string, profs []workload.Profile, systems []sim.System, o runOptions,
	run func(sim.Config) (R, runView), render func([]R)) {
	var assets *sim.MixAssets
	if len(systems) > 1 {
		assets = sim.PrepareAssets(profs, o.config(systems[0]), compress.BPC{}, o.jobs)
	}
	type systemRun struct {
		name string
		res  R
		view runView
	}
	runs := parallel.Map(parallel.Workers(o.jobs, len(systems)), len(systems), func(i int) systemRun {
		cfg := o.config(systems[i])
		cfg.Assets = assets
		name := label + "_" + systems[i].String()
		attachLive(&cfg, name)
		res, view := run(cfg)
		return systemRun{name: name, res: res, view: view}
	})
	results := make([]R, len(runs))
	for i, r := range runs {
		publishRun(r.name, r.view.snap, r.view.trace, r.view.attr)
		writeRunArtifact(kind, r.name, runArtifact(r.res, r.view.snap))
		results[i] = r.res
	}
	render(results)
	last := runs[len(runs)-1].view
	printRobustness(last.mem, last.faults, last.audit)
	printObsSummary(last.snap, last.trace)
	printAttribution(last.attr)
}

func runMixCLI(name string, o runOptions) {
	var mix *sim.Mix
	for _, m := range sim.Mixes() {
		if m.Name == name {
			mm := m
			mix = &mm
			break
		}
	}
	if mix == nil {
		fatal(fmt.Errorf("unknown mix %q (mix1..mix10)", name))
	}
	profs, err := mix.Profiles()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mix %s: %v\n", mix.Name, mix.Benches)
	systems := sim.Systems()
	compareSystems("mix", mix.Name, profs, systems, o, func(cfg sim.Config) (sim.MultiResult, runView) {
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

func runBench(bench, system string, compare bool, o runOptions) {
	prof, err := workload.ByName(bench)
	if err != nil {
		fatal(err)
	}
	systems := sim.Systems()
	if !compare {
		s, err := parseSystem(system)
		if err != nil {
			fatal(err)
		}
		systems = []sim.System{s}
	}
	compareSystems("bench", prof.Name, []workload.Profile{prof}, systems, o, func(cfg sim.Config) (sim.Result, runView) {
		res := sim.RunSingle(prof, cfg)
		return res, runView{res.Registry().Snapshot(), res.Trace, res.Attribution, res.Mem, res.Faults, res.Audit}
	}, func(results []sim.Result) {
		fmt.Printf("benchmark %s (%d pages footprint / scale %d, %d ops)\n",
			prof.Name, prof.FootprintPages, o.scale, o.ops)
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
