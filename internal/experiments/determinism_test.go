package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSeedSemantics pins the Seed/SeedSet contract: a zero Seed is the
// default 42 unless SeedSet marks it as deliberate, in which case 0 is
// a real seed. (Before SeedSet existed, -seed 0 silently ran seed 42.)
func TestSeedSemantics(t *testing.T) {
	cases := []struct {
		opt  Options
		want uint64
	}{
		{Options{}, 42},
		{Options{Seed: 7}, 7},
		{Options{Seed: 7, SeedSet: true}, 7},
		{Options{Seed: 0, SeedSet: true}, 0},
	}
	for _, tc := range cases {
		if got := tc.opt.seed(); got != tc.want {
			t.Errorf("Options{Seed:%d, SeedSet:%v}.seed() = %d, want %d",
				tc.opt.Seed, tc.opt.SeedSet, got, tc.want)
		}
	}
}

// TestSeedZeroIsDistinct checks that an explicit seed 0 actually
// changes the data, i.e. it is not remapped to the default anywhere
// downstream of Options.seed.
func TestSeedZeroIsDistinct(t *testing.T) {
	def := quickOpts()
	zero := quickOpts()
	zero.Seed, zero.SeedSet = 0, true
	if reflect.DeepEqual(Fig2Data(def), Fig2Data(zero)) {
		t.Fatal("explicit seed 0 produced the same fig2 data as the default seed")
	}
	same := quickOpts()
	same.SeedSet = true
	if !reflect.DeepEqual(Fig2Data(def), Fig2Data(same)) {
		t.Fatal("explicit seed 42 diverged from the default seed")
	}
}

// heavyExperiments are the dual-methodology sweeps that dominate the
// package's test time; the determinism check skips them in short mode
// and under the race detector (where they run ~10x slower), matching
// TestRunnersRender.
var heavyExperiments = map[string]bool{
	"fig10a": true, "fig10b": true, "fig11a": true,
	"fig11b": true, "fig12": true, "tab2": true,
}

// raceSlow are light experiments additionally skipped under the race
// detector (~11x slowdown): each is a duplicate of a parallel call
// shape the remaining set still covers (fig4 races a grid of full
// sims, fig9 races a failable grid, ab-align and bpc-variants race the
// ablation sites), so dropping them costs wall time only.
var raceSlow = map[string]bool{
	"fig6": true, "fig7": true, "ab-bins": true, "related-dmc": true,
}

// TestParallelDeterminism is the PR's core contract: for every
// registered experiment, the rendered output at Jobs = 1 is
// byte-identical to the output at Jobs = 8 for the same seed.
func TestParallelDeterminism(t *testing.T) {
	skipHeavy := testing.Short() || raceEnabled
	render := func(jobs int) map[string]string {
		resetMemos() // recompute shared sweeps at this jobs setting
		out := make(map[string]string)
		for _, e := range List() {
			if heavyExperiments[e.Name] && skipHeavy {
				continue
			}
			if raceSlow[e.Name] && raceEnabled {
				continue
			}
			var buf bytes.Buffer
			opt := quickOpts()
			opt.Out = &buf
			opt.Jobs = jobs
			if _, err := e.Run(opt); err != nil {
				t.Fatalf("%s (jobs=%d): %v", e.Name, jobs, err)
			}
			out[e.Name] = buf.String()
		}
		return out
	}
	serial := render(1)
	par := render(8)
	for name, want := range serial {
		got := par[name]
		if got == want {
			continue
		}
		// Locate the first diverging line for a readable failure.
		a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Errorf("%s: output differs between Jobs=1 and Jobs=8 at line %d:\n  serial:   %q\n  parallel: %q",
					name, i+1, a[i], b[i])
				break
			}
		}
		if len(a) != len(b) {
			t.Errorf("%s: output length differs between Jobs=1 (%d lines) and Jobs=8 (%d lines)",
				name, len(a), len(b))
		}
	}
}

// TestRunAllDeterministicOrder pins RunAll's aggregation contract with
// a synthetic registry: experiments finish in arbitrary order across
// workers, but the flushed output (including failure lines) appears in
// name order and is byte-identical to the serial run.
func TestRunAllDeterministicOrder(t *testing.T) {
	saved := registry
	registry = map[string]Experiment{}
	defer func() { registry = saved }()

	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("exp-%d", i)
		delay := time.Duration(5-i) * time.Millisecond // later names finish first
		register(name, "synthetic", func(opt Options) (any, error) {
			time.Sleep(delay)
			fmt.Fprintf(opt.Out, "[%s] body\n", name)
			return nil, nil
		})
	}
	register("exp-err", "always fails", func(opt Options) (any, error) {
		fmt.Fprintln(opt.Out, "[exp-err] partial output")
		return nil, fmt.Errorf("deliberate failure")
	})
	register("exp-panic", "always panics", func(Options) (any, error) { panic("deliberate panic") })

	run := func(jobs int) (string, error) {
		var buf bytes.Buffer
		err := RunAll(Options{Out: &buf, Quick: true, Jobs: jobs})
		return buf.String(), err
	}
	serialOut, serialErr := run(1)
	parOut, parErr := run(8)

	if serialOut != parOut {
		t.Errorf("RunAll output differs between Jobs=1 and Jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parOut)
	}
	if serialErr == nil || parErr == nil {
		t.Fatal("RunAll swallowed the failing experiments")
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("RunAll errors differ:\n  serial:   %v\n  parallel: %v", serialErr, parErr)
	}

	// Output must follow registry name order regardless of completion
	// order, with failure markers attached to their experiment.
	wantOrder := []string{
		"[exp-0]", "[exp-1]", "[exp-2]", "[exp-3]", "[exp-4]", "[exp-5]",
		"[exp-err]", "!! exp-err failed: deliberate failure",
		"!! exp-panic failed:", "deliberate panic",
	}
	pos := 0
	for _, marker := range wantOrder {
		idx := strings.Index(parOut[pos:], marker)
		if idx < 0 {
			t.Fatalf("marker %q missing or out of order in RunAll output:\n%s", marker, parOut)
		}
		pos += idx
	}
}
