// Package experiments contains one runner per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the full index). Each
// experiment has a data function (returning structured results, used
// by tests and benchmarks) and a Run wrapper that renders the paper's
// rows/series as text.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"compresso/internal/faults"
	"compresso/internal/journal"
	"compresso/internal/obs"
	"compresso/internal/parallel"
)

// Options control an experiment run.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Quick shrinks footprints and trace lengths for smoke tests; the
	// full configuration reproduces the paper-scale runs.
	Quick bool
	// Seed drives all randomness. A zero Seed falls back to the
	// default 42 unless SeedSet marks it as deliberate.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, which makes Seed == 0 a
	// usable seed instead of an alias for the default.
	SeedSet bool
	// Jobs bounds the worker goroutines that fan independent
	// simulation cells out across cores; <= 0 means GOMAXPROCS. The
	// rendered output is byte-identical for every Jobs value at the
	// same seed (see DESIGN.md §7 for the determinism contract).
	Jobs int
	// JSONDir, when non-empty, receives one deterministic JSON
	// artifact per experiment (the obs envelope, kind "experiment"):
	// the structured rows behind the tables. Files are
	// byte-identical across Jobs values (DESIGN.md §8).
	JSONDir string
	// Progress, when non-nil, observes every experiment grid (one
	// GridStart/GridEnd pair per fan-out, one GridCell per completed
	// simulation cell). It is display/telemetry only and must not
	// influence results: artifacts are byte-identical with or without a
	// Progress sink attached (DESIGN.md §9).
	Progress parallel.Progress

	// Resilience options (DESIGN.md §11). Every grid runs on
	// parallel.MapResilient; the zero values run each cell once, with
	// no deadline, journal or chaos, and abort the grid on the first
	// failure a serial loop would hit.

	// Ctx cancels the run: queued cells are skipped, in-flight
	// simulation cells abort cooperatively (sim.Config.Cancel), and
	// the grid error reports the cancellation.
	Ctx context.Context
	// CellTimeout is the per-attempt deadline for one grid cell
	// (0 disables). Expiry is retryable under Retry.
	CellTimeout time.Duration
	// Retry bounds re-attempts of transiently failing cells with
	// deterministic exponential backoff.
	Retry parallel.RetryPolicy
	// Quarantine switches to partial-results mode: failing cells land
	// in Failures (zero-valued rows) instead of aborting the grid.
	Quarantine bool
	// Chaos, when non-nil, disrupts cells deterministically (panic /
	// transient error / delay / kill) — the harness the resilience
	// machinery is proven against.
	Chaos *faults.Chaos
	// Journal, when non-nil, makes the run durable: completed cells
	// append to it as they finish, and journaled cells replay instead
	// of executing (resume). Replayed rows are byte-identical to
	// recomputed ones.
	Journal *journal.Journal
	// Failures collects quarantined cells across grids (the failure
	// manifest). Required when Quarantine is set and a manifest is
	// wanted; a nil log just drops the records.
	Failures *parallel.FailureLog
}

// ops and scale return the trace length and footprint divisor for the
// fidelity level.
func (o Options) ops() uint64 {
	if o.Quick {
		return 20_000
	}
	return 200_000
}

func (o Options) scale() int {
	if o.Quick {
		return 16
	}
	return 4
}

func (o Options) seed() uint64 {
	if o.Seed == 0 && !o.SeedSet {
		return 42
	}
	return o.Seed
}

// sweepKey keys the shared-grid memos: the (quick, seed) pair, the
// only options the shared grids' rows depend on.
func (o Options) sweepKey() [2]uint64 {
	var quick uint64
	if o.Quick {
		quick = 1
	}
	return [2]uint64{quick, o.seed()}
}

// Experiment is a registered paper artifact.
type Experiment struct {
	Name string
	Desc string
	// Run renders the experiment to opt.Out and returns the structured
	// rows behind the tables — the JSON artifact payload (nil for
	// prose-only artifacts, which produce no JSON file).
	Run func(Options) (any, error)
	// grids are the single-core grids Run's cells read, for the plan
	// to run their runs ahead of them.
	grids []singleGrid
}

var registry = map[string]Experiment{}

// register adds an experiment whose cells read the single-core grids
// (none when it simulates no single-core run).
func register(name, desc string, run func(Options) (any, error), grids ...singleGrid) {
	registry[name] = Experiment{Name: name, Desc: desc, Run: run, grids: grids}
}

// List returns all experiments sorted by name.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment, after the plan has run its
// single-core runs. A panic inside the experiment is converted to an
// error, so a defect in one artifact reports instead of killing the
// process.
func Run(name string, opt Options) error {
	e, ok := registry[name]
	if !ok {
		var names []string
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
	}
	plan(opt, []Experiment{e})
	return runRecovering(e, opt)
}

// grid fans an experiment's simulation cells out under opt's job
// bound on parallel.MapResilient, reporting per-cell progress to
// opt.Progress under label. The cell function receives the attempt
// context (derived from opt.Ctx, context.Background when unset); cells
// that build a sim.Config should install it as Config.Cancel so
// in-flight work aborts cooperatively.
//
// A fatal grid error (a panicking cell, cancellation, exhausted retries
// outside quarantine mode) unwinds as a gridFatal panic, which
// runRecovering converts back to the experiment's error.
func grid[T any](opt Options, label string, n int, fn func(ctx context.Context, i int) T) []T {
	rows, err := gridErr(opt, label, n, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i), nil
	})
	if err != nil {
		panic(gridFatal{err: err})
	}
	return rows
}

// gridFatal carries a resilient grid's fatal error out of grid (which
// has no error return); runRecovering unwraps it so errors.Is chains
// survive the unwind.
type gridFatal struct{ err error }

// Error makes the panic value render as its cause when a recover site
// formats it with %v (e.g. the memo cache's poison message).
func (g gridFatal) Error() string { return g.err.Error() }

// gridErr is grid for cells that can fail, returning the grid error
// instead of unwinding. It executes one grid on parallel.MapResilient:
// journal replay and record around each cell, chaos disruption per
// attempt, retry/deadline/quarantine per opt, and the grid's
// quarantined cells appended to opt.Failures.
func gridErr[T any](opt Options, label string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	hash := cellHash[T](opt)
	run := parallel.Run{
		Jobs:        opt.Jobs,
		Ctx:         opt.Ctx,
		CellTimeout: opt.CellTimeout,
		Retry:       opt.Retry,
		Quarantine:  opt.Quarantine,
		Progress:    opt.Progress,
		Label:       label,
	}
	rows, failures, err := parallel.MapResilient(run, n, func(ctx context.Context, i, attempt int) (T, error) {
		var zero T
		if opt.Journal != nil {
			if raw, ok := opt.Journal.Lookup(label, i, hash); ok {
				if v, derr := replayCell[T](raw); derr == nil {
					parallel.NotifyReplayed(opt.Progress, label, i)
					return v, nil
				}
				// A row that no longer decodes is treated as absent: the
				// cell recomputes and re-records under the same key.
			}
		}
		if cerr := opt.Chaos.Disrupt(ctx, label, i, attempt); cerr != nil {
			return zero, cerr
		}
		v, ferr := fn(ctx, i)
		if ferr != nil {
			return zero, ferr
		}
		if opt.Journal != nil {
			if jerr := opt.Journal.Record(label, i, hash, v); jerr != nil {
				return zero, jerr
			}
		}
		return v, nil
	})
	if opt.Failures != nil && len(failures) > 0 {
		opt.Failures.Add(failures...)
	}
	return rows, err
}

// cellHash condenses everything that determines a cell's row — the
// fidelity level, the seed, and the row type — into the journal entry
// key, so a journal never replays across configurations or row shapes.
func cellHash[T any](opt Options) string {
	var zero T
	return journal.ContentHash(
		fmt.Sprintf("%T", zero),
		strconv.FormatBool(opt.Quick),
		strconv.FormatUint(opt.seed(), 10),
		strconv.FormatUint(opt.ops(), 10),
		strconv.Itoa(opt.scale()),
	)
}

// replayCell decodes a journaled row back into the grid's row type.
func replayCell[T any](raw json.RawMessage) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("experiments: replaying journaled cell: %w", err)
	}
	return v, nil
}

// writeArtifact serializes one experiment's payload into opt.JSONDir.
func writeArtifact(opt Options, name string, data any) error {
	if opt.JSONDir == "" || data == nil {
		return nil
	}
	_, err := obs.WriteArtifact(opt.JSONDir, obs.Artifact{
		Kind: "experiment",
		Name: name,
		Data: data,
	})
	return err
}

// RunAll executes every registered experiment, after the plan has run
// their single-core runs. Experiments run concurrently (bounded by
// Options.Jobs), each rendering into its own buffer; the buffers are
// flushed to opt.Out in name order, so the output is byte-identical to
// a serial sweep. Each experiment runs under panic recovery and a
// failure does not stop the batch; the returned error joins every
// failure in name order (nil when all succeeded).
func RunAll(opt Options) error {
	list := List()
	plan(opt, list)
	type outcome struct {
		text string
		err  error
	}
	// The cells never fail: runRecovering turns every experiment panic
	// into the outcome's error, so the grid error is always nil.
	run := parallel.Run{Jobs: opt.Jobs, Progress: opt.Progress, Label: "all"}
	outs, _, _ := parallel.MapResilient(run, len(list), func(_ context.Context, i, _ int) (outcome, error) {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return outcome{err: fmt.Errorf("experiments: %s skipped: %w", list[i].Name, opt.Ctx.Err())}, nil
		}
		var buf bytes.Buffer
		sub := opt
		sub.Out = &buf
		err := runRecovering(list[i], sub)
		return outcome{text: buf.String(), err: err}, nil
	})
	var errs []error
	for i, o := range outs {
		io.WriteString(opt.Out, o.text)
		if o.err != nil {
			fmt.Fprintf(opt.Out, "\n!! %s failed: %v\n", list[i].Name, o.err)
			errs = append(errs, o.err)
		}
	}
	return errors.Join(errs...)
}

// runRecovering runs e under the pprof label experiment=<name>, which
// its grids' worker goroutines inherit, so a -cpuprofile of a sweep
// splits by experiment (go tool pprof -tagfocus).
func runRecovering(e Experiment, opt Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if gf, ok := r.(gridFatal); ok {
				err = gf.err
				return
			}
			err = fmt.Errorf("experiments: %s panicked: %v", e.Name, r)
		}
	}()
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var data any
	pprof.Do(ctx, pprof.Labels("experiment", e.Name), func(ctx context.Context) {
		opt.Ctx = ctx
		data, err = e.Run(opt)
	})
	if err != nil {
		return err
	}
	return writeArtifact(opt, e.Name, data)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
