package main

import (
	"reflect"
	"strings"
	"testing"

	"compresso/internal/sim"
	"compresso/internal/workload"
)

// TestFailureAccounting checks that a cell that panics, one that
// breaks an invariant, and one whose digest changes in the second
// repetition each count as failed, while the other cells still report.
func TestFailureAccounting(t *testing.T) {
	prof, err := workload.ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig("no-such-backend")
	cfg.Ops, cfg.FootprintScale = 100, 16
	panicked := (&spec{}).simCell([]workload.Profile{prof}, cfg)
	if panicked.Err == nil {
		t.Fatal("a cell on an unregistered backend did not fail")
	}
	rep := func(lcpCycles uint64) repRecord {
		return repRecord{Kind: repPlain, Cells: check([]cellResult{
			{System: "uncompressed", Single: &sim.Result{System: "uncompressed", Ratio: 1.25}},
			panicked,
			{System: "lcp", Single: &sim.Result{System: "lcp", Cycles: lcpCycles, Ratio: 1.5}},
		})}
	}
	first, second := rep(100), rep(101)
	if first.Cells[2].Err != "" || first.Cells[2].Digest == "" {
		t.Fatalf("healthy cell did not report: %+v", first.Cells[2])
	}
	attempted, failed, problems := tally([]repRecord{first, second})
	if attempted != 6 || failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5: %v", attempted, failed, problems)
	}
	for i, want := range []string{"ratio 1.25", "panic", "ratio 1.25", "panic", "differs from the first repetition"} {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, problems[i], want)
		}
	}
}

// TestSingleCoreInvariant checks that single-core systems must agree on
// instructions and L3 traffic.
func TestSingleCoreInvariant(t *testing.T) {
	a := &sim.Result{System: "lcp", Ratio: 2}
	b := &sim.Result{System: "compresso", Ratio: 2}
	b.L3.Misses = 1
	out := check([]cellResult{{System: "lcp", Single: a}, {System: "compresso", Single: b}})
	if out[0].Err != "" || !strings.Contains(out[1].Err, "differ from lcp") {
		t.Fatalf("outcomes %+v", out)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4], n=4).
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSpecMatchesProgram checks that BENCHMARK.json lists exactly the
// workloads and metrics the program reports, with valid bounds.
func TestSpecMatchesProgram(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if p, ok := lookup(w.Name); !ok || p.why != w.Why {
			t.Errorf("workload %s: why differs from the program's %q", w.Name, p.why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("spec workloads %v, program %v", names, workloadNames())
	}
	var setupBound, maxBound float64
	e2e := make([]metricSpec, len(s.EndToEnd))
	for i, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
		m.Bound = 0
		e2e[i] = m
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("spec end_to_end %v\nprogram %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer()) {
		t.Errorf("spec per_layer differs from the program's:\n%v", perLayer())
	}
}
