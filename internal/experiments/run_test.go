package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/progress"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

func gccProfile(t *testing.T) workload.Profile {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// perturb changes v, a settable field of core.Config, to a different
// value of its type. It reports false for a kind it cannot change, so
// a new kind of field fails the coverage test until it is handled.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		// The only interface field is the codec.
		c, ok := v.Interface().(compress.BPC)
		if !ok {
			return false
		}
		v.Set(reflect.ValueOf(compress.BPC{DisableBestOf: !c.DisableBestOf}))
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(compress.Bins{}) {
			v.Set(reflect.ValueOf(compress.EightBins))
			return true
		}
		return false
	default:
		return false
	}
	return true
}

// TestRunKeyCoversCoreConfig reflects over core.Config: changing any
// one field (or any one field of a nested config struct) through a
// modifier must change the run key, or two different simulations
// would share one memoized result.
func TestRunKeyCoversCoreConfig(t *testing.T) {
	prof := gccProfile(t)
	opt := quickOpts()
	base := runSpec{sys: sim.Compresso}.key(prof, opt)
	var walk func(path string, idx []int, typ reflect.Type)
	walk = func(path string, idx []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fidx := append(append([]int(nil), idx...), i)
			name := path + f.Name
			if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(compress.Bins{}) {
				walk(name+".", fidx, f.Type)
				continue
			}
			ok := true
			mod := func(c *core.Config) {
				ok = perturb(reflect.ValueOf(c).Elem().FieldByIndex(fidx))
			}
			k := runSpec{sys: sim.Compresso, mod: mod}.key(prof, opt)
			if !ok {
				t.Errorf("core.Config.%s: kind %s has no perturbation; extend perturb", name, f.Type.Kind())
				continue
			}
			if k == base {
				t.Errorf("changing core.Config.%s leaves the run key unchanged", name)
			}
		}
	}
	walk("", nil, reflect.TypeOf(core.Config{}))
}

// TestRunKeyCoversRunFields: every run-level knob outside core.Config
// changes the key too.
func TestRunKeyCoversRunFields(t *testing.T) {
	prof := gccProfile(t)
	opt := quickOpts()
	base := runSpec{sys: sim.Compresso}.key(prof, opt)
	other := prof
	other.WriteFrac += 0.01
	full := opt
	full.Quick = false
	seeded := opt
	seeded.Seed, seeded.SeedSet = 7, true
	for name, k := range map[string]runKey{
		"system":      runSpec{sys: sim.LCP}.key(prof, opt),
		"overlap":     runSpec{sys: sim.Compresso, overlap: true}.key(prof, opt),
		"attribution": runSpec{sys: sim.Compresso, attribution: true}.key(prof, opt),
		"top pages":   runSpec{sys: sim.Compresso, topPages: 8}.key(prof, opt),
		"profile":     runSpec{sys: sim.Compresso}.key(other, opt),
		"ops/scale":   runSpec{sys: sim.Compresso}.key(prof, full),
		"seed":        runSpec{sys: sim.Compresso}.key(prof, seeded),
	} {
		if k == base {
			t.Errorf("changing the %s leaves the run key unchanged", name)
		}
	}
}

// TestRunKeyCollapsesEqualConfigs: modifiers written differently but
// resolving to the same controller config share one key, which is what
// lets the sweep run fig4's fixed-chunk baseline, fig6's stage 0 and
// ab-align's legacy column once.
func TestRunKeyCollapsesEqualConfigs(t *testing.T) {
	prof := gccProfile(t)
	opt := quickOpts()
	key := func(mod func(*core.Config)) runKey {
		return runSpec{sys: sim.Compresso, mod: mod}.key(prof, opt)
	}
	fig4Fixed := key(baselineMod)
	if key(fig6Grid.specs[0].mod) != fig4Fixed {
		t.Error("fig6 stage 0 does not share fig4's fixed-chunk run")
	}
	if key(func(c *core.Config) { baselineMod(c); c.Bins = compress.LegacyBins }) != fig4Fixed {
		t.Error("ab-align's legacy column does not share fig4's fixed-chunk run")
	}
	if key(fig6Grid.specs[5].mod) != key(nil) {
		t.Error("fig6's full-Compresso stage does not share the default run")
	}
	// Non-compresso systems ignore the modifier, and so does their key.
	if (runSpec{sys: sim.LCP, mod: baselineMod}).key(prof, opt) != (runSpec{sys: sim.LCP}).key(prof, opt) {
		t.Error("a compresso modifier changed an lcp run's key")
	}
}

func resultJSON(t *testing.T, r sim.Result) string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// cachedRuns counts the runs the memo holds for prof's op stream under
// opt.
func cachedRuns(prof workload.Profile, opt Options) int {
	runs, _, release := runCache.Claim(runSpec{}.key(prof, opt).streamKey())
	if release != nil {
		release(nil, false)
	}
	return len(runs)
}

// TestRunMemoHitMatchesFreshRun: a memo hit returns a Result whose
// JSON equals a fresh sim.RunSingle's, and a repeated request does not
// simulate again.
func TestRunMemoHitMatchesFreshRun(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	opt := quickOpts()
	spec := runSpec{sys: sim.Compresso, mod: baselineMod}
	fresh := resultJSON(t, sim.RunSingle(prof, spec.config(context.Background(), opt)))

	first := runSingle(context.Background(), opt, prof, spec)
	hit := runSingle(context.Background(), opt, prof, runSpec{sys: sim.Compresso, mod: fig6Grid.specs[0].mod})
	if n := cachedRuns(prof, opt); n != 1 {
		t.Fatalf("memo holds %d runs after two requests for one config, want 1", n)
	}
	if got := resultJSON(t, first); got != fresh {
		t.Error("memoized run differs from a fresh sim.RunSingle")
	}
	if got := resultJSON(t, hit); got != fresh {
		t.Error("memo hit differs from a fresh sim.RunSingle")
	}
}

// TestRunMemoCanceledPublishesNothing: a computation aborted by its
// caller's context leaves no entry behind, and the next live caller
// simulates and gets the right result.
func TestRunMemoCanceledPublishesNothing(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	opt := quickOpts()
	spec := runSpec{sys: sim.LCP}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run unwound with %v, want a context.Canceled error", r)
			}
		}()
		runSingle(ctx, opt, prof, spec)
	}()
	if n := cachedRuns(prof, opt); n != 0 {
		t.Fatalf("canceled run left %d memo entries", n)
	}
	got := resultJSON(t, runSingle(context.Background(), opt, prof, spec))
	if want := resultJSON(t, sim.RunSingle(prof, spec.config(context.Background(), opt))); got != want {
		t.Error("the run after a canceled one differs from a fresh sim.RunSingle")
	}
}

// TestRunMemoWaiterCancelIsPrompt: a caller waiting on another's
// in-flight run stops as soon as its own context fires, with an error
// the grid classifies as a cancellation.
func TestRunMemoWaiterCancelIsPrompt(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	opt := quickOpts()
	spec := runSpec{sys: sim.Uncompressed}
	release := make(chan struct{})
	started := make(chan struct{})
	computed := make(chan struct{})
	go func() {
		defer close(computed)
		runCache.Update(context.Background(), spec.key(prof, opt).streamKey(), func(map[runKey]sim.Result, bool) (map[runKey]sim.Result, error) {
			close(started)
			<-release
			return nil, errors.New("withdrawn")
		})
	}()
	defer func() { close(release); <-computed }()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	func() {
		defer func() {
			err, ok := recover().(error)
			if !ok || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter unwound with %v, want a context.DeadlineExceeded error", err)
			}
		}()
		runSingle(ctx, opt, prof, spec)
	}()
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Fatalf("waiter took %v to notice its context", waited)
	}
}

// TestRunMemoPanicSameErrorAtAnyJobs: when the simulation behind a
// shared key panics, every grid cell asking for it sees its own panic,
// never a cached failure, so the grid's fatal error is the same at any
// worker count. Declaring the run makes the plan's pass of it panic
// first, which must change nothing: the error is the cell's own, and
// the plan still runs the healthy pass declared after it.
func TestRunMemoPanicSameErrorAtAnyJobs(t *testing.T) {
	prof := gccProfile(t)
	// The key resolves the config against zero pages; only the real
	// controller build has pages, so the panic happens inside the run.
	mod := func(c *core.Config) {
		c.PrefetchBuffer = 3
		if c.OSPAPages != 0 {
			panic("boom in the controller build")
		}
	}
	spec := runSpec{sys: sim.Compresso, mod: mod}
	runPanic := func(opt Options) (any, error) {
		grid(opt, "shared", 8, func(ctx context.Context, i int) int {
			runSingle(ctx, opt, prof, spec)
			return i
		})
		return nil, nil
	}
	defer delete(registry, "test-run-panic")
	var first string
	for _, declared := range []bool{false, true} {
		var grids []singleGrid
		wantPlanned := int64(0)
		if declared {
			grids = []singleGrid{
				{profs: []workload.Profile{prof}, specs: []runSpec{spec}},
				{profs: mustProfiles("mcf"), specs: []runSpec{{sys: sim.Uncompressed}}},
			}
			wantPlanned = 2
		}
		register("test-run-panic", "cells sharing one panicking run", runPanic, grids...)
		for _, jobs := range []int{1, 8} {
			resetMemos()
			err := Run("test-run-panic", Options{Out: io.Discard, Quick: true, Jobs: jobs, Ctx: context.Background()})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("declared=%v jobs=%d: err = %v, want the controller panic", declared, jobs, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("grid error depends on jobs or the plan:\n  undeclared, jobs=1: %s\n  declared=%v, jobs=%d: %s",
					first, declared, jobs, err)
			}
			if planned := passCount.planned.Load(); planned != wantPlanned {
				t.Errorf("declared=%v jobs=%d: the plan ran %d passes, want %d", declared, jobs, planned, wantPlanned)
			}
		}
	}
	resetMemos()
	if !strings.Contains(first, "shared[0]") {
		t.Errorf("grid error %q does not name cell 0", first)
	}
}

// TestAttributionLeavesMemoizedRunsIntact: the attribution experiment
// merges per-benchmark ledgers, and the merge must not write into the
// memoized results it starts from, or a second request for the same
// rows (a memo hit) would merge into an already-merged ledger.
func TestAttributionLeavesMemoizedRunsIntact(t *testing.T) {
	resetMemos()
	defer resetMemos()
	first, err := AttributionData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	again, err := AttributionData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("attribution rows changed on a memo hit: the merge wrote into a memoized result")
	}
}

// labelRecorder returns a compresso modifier that appends the pprof
// labels of the goroutine building the run's controller to *labels.
// marker names the test, whose closure the goroutine's stack runs
// through. The run key resolves the modifier against zero pages, which
// records nothing.
func labelRecorder(t *testing.T, marker string, labels *[]string) func(*core.Config) {
	return func(c *core.Config) {
		if c.OSPAPages == 0 {
			return
		}
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Error(err)
		}
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, marker+".") && strings.Contains(rec, "pprof.(*Profile).WriteTo") {
				line := ""
				for _, l := range strings.Split(rec, "\n") {
					if strings.HasPrefix(l, "# labels: ") {
						line = l
					}
				}
				*labels = append(*labels, line)
			}
		}
	}
}

// TestComputingCellCarriesProfileLabels: a lockstep pass computed
// inside an experiment's grid runs on a goroutine labeled with the
// experiment, the pass's systems and the benchmark, the labels a
// -cpuprofile of a sweep is split by. Each label is matched with its
// key, so renaming a key fails the test.
func TestComputingCellCarriesProfileLabels(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	var labels []string // the labels of every goroutine that called mod
	mod := labelRecorder(t, "TestComputingCellCarriesProfileLabels", &labels)
	e := Experiment{Name: "labels-probe", Run: func(opt Options) (any, error) {
		grid(opt, "probe", 1, func(ctx context.Context, _ int) sim.Result {
			return runMany(ctx, opt, prof, []runSpec{{sys: sim.Uncompressed}, {sys: sim.Compresso, mod: mod}})[1]
		})
		return nil, nil
	}}
	opt := quickOpts()
	opt.Jobs = 2
	if err := runRecovering(e, opt); err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 {
		t.Fatalf("the run built its controller %d times, want once", len(labels))
	}
	got := labels[0]
	for _, want := range []string{`"experiment":"labels-probe"`, `"systems":"uncompressed,compresso"`, `"bench":"gcc"`} {
		if !strings.Contains(got, want) {
			t.Errorf("computing goroutine's labels %q lack %s", got, want)
		}
	}
}

// TestPlanRunsDeclaredPassesFirst: Run plans an experiment's declared
// runs before its grid, in one pass per stream, reported to Progress as
// the grid "plan" and labeled experiment=plan for -cpuprofile; the
// grid's own request is then a memo hit.
func TestPlanRunsDeclaredPassesFirst(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	var labels []string
	specs := []runSpec{{sys: sim.Uncompressed}, {sys: sim.Compresso, mod: labelRecorder(t, "TestPlanRunsDeclaredPassesFirst", &labels)}}
	register("test-plan-probe", "one planned stream", func(opt Options) (any, error) {
		grid(opt, "probe", 2, func(ctx context.Context, _ int) sim.Result {
			return runMany(ctx, opt, prof, specs)[1]
		})
		return nil, nil
	}, singleGrid{profs: []workload.Profile{prof, prof}, specs: specs}, singleGrid{profs: []workload.Profile{prof}, specs: specs[1:]})
	defer delete(registry, "test-plan-probe")
	tr := progress.NewTracker()
	opt := quickOpts()
	opt.Jobs = 2
	opt.Progress = tr
	if err := Run("test-plan-probe", opt); err != nil {
		t.Fatal(err)
	}
	if all, planned := passCount.all.Load(), passCount.planned.Load(); all != 1 || planned != 1 {
		t.Fatalf("ran %d passes, %d planned; want the one planned pass", all, planned)
	}
	st := tr.State()
	if len(st.Grids) != 2 || st.Grids[0].Label != "plan" || st.Grids[0].Total != 1 || st.Grids[1].Label != "probe" {
		t.Fatalf("grids %+v, want plan (1 cell) then probe", st.Grids)
	}
	if len(labels) != 1 {
		t.Fatalf("the planned pass built its controller %d times, want once", len(labels))
	}
	got := labels[0]
	for _, want := range []string{`"experiment":"plan"`, `"systems":"uncompressed,compresso"`, `"bench":"gcc"`} {
		if !strings.Contains(got, want) {
			t.Errorf("planned pass's labels %q lack %s", got, want)
		}
	}
}

// TestRunManyFailedPassWithdrawsEveryRun: a lockstep pass that is
// canceled, or panics in one of its machines, publishes none of its
// runs, not even the healthy machines'; the next caller simulates them
// and gets exactly the solo results.
func TestRunManyFailedPassWithdrawsEveryRun(t *testing.T) {
	prof := gccProfile(t)
	opt := quickOpts()
	healthy := []runSpec{{sys: sim.Uncompressed}, {sys: sim.LCP}}
	boom := runSpec{sys: sim.Compresso, mod: func(c *core.Config) {
		c.PrefetchBuffer = 5
		if c.OSPAPages != 0 {
			panic("boom in the controller build")
		}
	}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, fail := range map[string]func(){
		"canceled": func() { runMany(canceled, opt, prof, healthy) },
		"panic":    func() { runMany(context.Background(), opt, prof, append(slices.Clone(healthy), boom)) },
	} {
		t.Run(name, func(t *testing.T) {
			resetMemos()
			defer resetMemos()
			func() {
				defer func() {
					r := recover()
					err, _ := r.(error)
					if !errors.Is(err, context.Canceled) && r != "boom in the controller build" {
						t.Fatalf("failed pass unwound with %v", r)
					}
				}()
				fail()
			}()
			if n := cachedRuns(prof, opt); n != 0 {
				t.Fatalf("failed pass left %d memo entries", n)
			}
			got := runMany(context.Background(), opt, prof, healthy)
			for i, spec := range healthy {
				want := sim.RunSingle(prof, spec.config(context.Background(), opt))
				if resultJSON(t, got[i]) != resultJSON(t, want) {
					t.Errorf("%s after the failed pass differs from a fresh sim.RunSingle", spec.sys)
				}
			}
			if n := cachedRuns(prof, opt); n != len(healthy) {
				t.Fatalf("the recomputing pass published %d runs, want %d", n, len(healthy))
			}
		})
	}
}

// TestRunManyComputesMissingRunsOnce: runMany simulates only the runs
// its stream's map lacks, each once however often specs repeats it,
// and returns each spec's result in specs' order.
func TestRunManyComputesMissingRunsOnce(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := gccProfile(t)
	opt := quickOpts()
	// The key resolves each modifier against zero pages; only the real
	// controller build counts.
	builds := map[int]int{}
	variant := func(buffer int) runSpec {
		return runSpec{sys: sim.Compresso, mod: func(c *core.Config) {
			c.PrefetchBuffer = buffer
			if c.OSPAPages != 0 {
				builds[buffer]++
			}
		}}
	}
	a, b := variant(3), variant(5)
	first := runMany(context.Background(), opt, prof, []runSpec{a})
	got := runMany(context.Background(), opt, prof, []runSpec{b, a, b})
	if builds[3] != 1 || builds[5] != 1 {
		t.Fatalf("simulated the variants %d and %d times, want once each", builds[3], builds[5])
	}
	if n := cachedRuns(prof, opt); n != 2 {
		t.Fatalf("memo holds %d runs for the stream, want 2", n)
	}
	if resultJSON(t, got[1]) != resultJSON(t, first[0]) {
		t.Error("a memoized run came back different")
	}
	if resultJSON(t, got[0]) != resultJSON(t, got[2]) {
		t.Error("a repeated spec got two different results")
	}
	if want := resultJSON(t, sim.RunSingle(prof, b.config(context.Background(), opt))); resultJSON(t, got[0]) != want {
		t.Error("the computed run differs from a fresh sim.RunSingle")
	}
}
