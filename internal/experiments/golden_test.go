package experiments

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestQuickSweepGolden compares a quick-mode RunAll on two workers, the
// output of `compresso-sim -exp all -quick -jobs 2`, byte for byte with
// testdata/quick_sweep.txt. When a change moves the sweep's numbers on
// purpose, regenerate the file with that command and say why in the
// change. It also pins the plan: the sweep's 429 distinct single-core
// runs fall on 30 op streams, the plan runs one pass per stream, and no
// grid cell starts a pass after it, which fails when an experiment's
// registered grids miss a run its cells ask for.
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full quick sweep: skipped under -short and -race")
	}
	want, err := os.ReadFile("testdata/quick_sweep.txt")
	if err != nil {
		t.Fatal(err)
	}
	resetMemos()
	defer resetMemos()
	var got bytes.Buffer
	opt := Options{Out: &got, Quick: true, Seed: 42, Jobs: 2}
	if err := RunAll(opt); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	passes, runs := planPasses(opt, List()), 0
	for _, p := range passes {
		runs += len(p.specs)
	}
	if len(passes) != 30 || runs != 429 {
		t.Errorf("the plan has %d runs on %d streams, want 429 on 30", runs, len(passes))
	}
	if planned, all := passCount.planned.Load(), passCount.all.Load(); planned != int64(len(passes)) || all != planned {
		t.Errorf("the sweep ran %d passes, %d of them planned; want one planned pass per stream (%d) and no other",
			all, planned, len(passes))
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("quick sweep drifted from testdata/quick_sweep.txt at line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("quick sweep has %d lines, testdata/quick_sweep.txt %d", len(g), len(w))
}

// TestEachExperimentPlansItsOwnRuns runs every experiment alone, in
// quick mode, from empty memos: each must start only planned passes,
// so an experiment whose cells lean on another experiment's registered
// grid fails here even though the full sweep, which plans every grid,
// would pass.
func TestEachExperimentPlansItsOwnRuns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("an experiment at a time in quick mode: skipped under -short and -race")
	}
	defer resetMemos()
	for _, e := range List() {
		resetMemos()
		if err := Run(e.Name, Options{Out: io.Discard, Quick: true, Seed: 42, Jobs: 2}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if all, planned := passCount.all.Load(), passCount.planned.Load(); all != planned {
			t.Errorf("%s ran %d passes, %d of them planned; want only planned passes", e.Name, all, planned)
		}
	}
}
