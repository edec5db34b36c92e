package experiments

import (
	"bytes"
	"strings"
	"testing"

	"compresso/internal/sim"
	"compresso/internal/stats"
)

func quickOpts() Options {
	return Options{Out: &bytes.Buffer{}, Quick: true, Seed: 42}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ab-align", "ab-bins", "attribution",
		"backends-ratio", "backends-traffic",
		"bpc-variants", "fig10a", "fig10b",
		"fig11a", "fig11b", "fig12", "fig2", "fig4", "fig6", "fig7", "fig9",
		"fleet-policy", "fleet-sweep",
		"overlap", "related-dmc", "tab1", "tab2", "tab5"}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.Name, want[i])
		}
		if e.Desc == "" {
			t.Fatalf("%s has no description", e.Name)
		}
	}
}

// TestAttributionExperimentShape pins the attribution experiment's
// data contract: one row per registered backend in registry order,
// every ledger conserving exactly, and the baseline paying zero
// compression overhead.
func TestAttributionExperimentShape(t *testing.T) {
	rows, err := AttributionData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	systems := sim.AllSystems()
	if len(rows) != len(systems) {
		t.Fatalf("%d rows for %d registered backends", len(rows), len(systems))
	}
	for i, r := range rows {
		if r.System != systems[i].String() {
			t.Fatalf("row %d is %q, want %q", i, r.System, systems[i])
		}
		if r.Accesses == 0 || r.ChargedCycles == 0 {
			t.Fatalf("%s: empty ledger: %+v", r.System, r)
		}
		if r.Attribution.Violations != 0 {
			t.Fatalf("%s: %d conservation violations", r.System, r.Attribution.Violations)
		}
		var exposed uint64
		for _, c := range r.Attribution.Components {
			exposed += c.ExposedCycles
		}
		if exposed != r.ChargedCycles {
			t.Fatalf("%s: exposed %d != charged %d", r.System, exposed, r.ChargedCycles)
		}
		if len(r.Attribution.HotPages) == 0 {
			t.Fatalf("%s: hot-page profile empty", r.System)
		}
		if r.System == "uncompressed" && r.OverheadFrac != 0 {
			t.Fatalf("uncompressed pays overhead: %v", r.OverheadFrac)
		}
		if r.System != "uncompressed" && r.OverheadFrac <= 0 {
			t.Fatalf("%s: no compression overhead attributed", r.System)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", quickOpts()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestRunRecoversPanic(t *testing.T) {
	register("test-panic", "always panics", func(Options) (any, error) { panic("boom") })
	defer delete(registry, "test-panic")
	err := Run("test-panic", quickOpts())
	if err == nil {
		t.Fatal("panicking experiment did not report an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFig2Shape(t *testing.T) {
	rows := Fig2Data(quickOpts())
	if len(rows) != 30 {
		t.Fatalf("%d rows", len(rows))
	}
	var lpB, lcpB, lpD, lcpD []float64
	for _, r := range rows {
		if r.BPCLinePack < 1 || r.BDILinePack < 1 {
			t.Fatalf("%s: ratios below 1: %+v", r.Bench, r)
		}
		lpB = append(lpB, r.BPCLinePack)
		lcpB = append(lcpB, r.BPCLCP)
		lpD = append(lpD, r.BDILinePack)
		lcpD = append(lcpD, r.BDILCP)
	}
	// Shape assertions from §II-C: LCP-packing loses much more with
	// BPC than with BDI, and BPC+LinePack is the best configuration.
	lossBPC := 1 - stats.Mean(lcpB)/stats.Mean(lpB)
	lossBDI := 1 - stats.Mean(lcpD)/stats.Mean(lpD)
	if lossBPC <= lossBDI {
		t.Fatalf("LCP loss with BPC (%.3f) not above loss with BDI (%.3f)", lossBPC, lossBDI)
	}
	if stats.Mean(lpB) <= stats.Mean(lpD) {
		t.Fatalf("BPC+LinePack (%.2f) not above BDI+LinePack (%.2f)", stats.Mean(lpB), stats.Mean(lpD))
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4Data(quickOpts())
	if len(rows) != 30 {
		t.Fatalf("%d rows", len(rows))
	}
	var totals []float64
	for _, r := range rows {
		totals = append(totals, r.Fixed.Total())
	}
	avg := stats.Mean(totals)
	// The unoptimized system must show substantial extra movement
	// (the paper's 63%; quick mode lands in a broad band).
	if avg < 0.10 {
		t.Fatalf("baseline extra accesses %.3f suspiciously low", avg)
	}
}

func TestFig6Staircase(t *testing.T) {
	rows := Fig6Data(quickOpts())
	if len(rows) != 30 {
		t.Fatalf("%d rows", len(rows))
	}
	stage := make([][]float64, len(Fig6Stages))
	for _, r := range rows {
		for s, v := range r.Stages {
			stage[s] = append(stage[s], v)
		}
	}
	first := stats.Mean(stage[0])
	final := stats.Mean(stage[len(Fig6Stages)-1])
	if final >= first {
		t.Fatalf("optimizations did not reduce extra accesses: %.3f -> %.3f", first, final)
	}
	// Alignment alone (stage 1) must already help on average.
	if stats.Mean(stage[1]) >= first {
		t.Fatalf("alignment stage did not help: %.3f -> %.3f", first, stats.Mean(stage[1]))
	}
	t.Logf("staircase: %.3f -> %.3f -> %.3f -> %.3f -> %.3f -> %.3f",
		stats.Mean(stage[0]), stats.Mean(stage[1]), stats.Mean(stage[2]),
		stats.Mean(stage[3]), stats.Mean(stage[4]), stats.Mean(stage[5]))
}

func TestFig9Shape(t *testing.T) {
	series := Fig9Data(quickOpts())
	if len(series) != 2 || series[0].Bench != "GemsFDTD" || series[1].Bench != "astar" {
		t.Fatalf("series %+v", series)
	}
	for _, s := range series {
		if len(s.Ratios) != 12 {
			t.Fatalf("%s: %d intervals", s.Bench, len(s.Ratios))
		}
	}
}

func TestTab2Shape(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("tab2 sweep is slow")
	}
	cells := Tab2Data(quickOpts())
	if len(cells) != 6 {
		t.Fatalf("%d cells", len(cells))
	}
	// Ordering within each cell: unconstrained >= compresso >= lcp >= 1.
	for _, c := range cells {
		if c.Compresso < c.LCP-0.02 {
			t.Errorf("%.0f%%/%d-core: compresso %.3f below lcp %.3f",
				c.Frac*100, c.Cores, c.Compresso, c.LCP)
		}
		if c.Unconstrained < c.Compresso-0.02 {
			t.Errorf("%.0f%%/%d-core: unconstrained %.3f below compresso %.3f",
				c.Frac*100, c.Cores, c.Unconstrained, c.Compresso)
		}
	}
	// Benefits grow as memory tightens (1-core rows: index 0, 2, 4).
	if !(cells[4].Unconstrained >= cells[0].Unconstrained) {
		t.Errorf("60%% unconstrained %.3f below 80%% %.3f",
			cells[4].Unconstrained, cells[0].Unconstrained)
	}
}

func TestRunnersRender(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full render sweep is slow")
	}
	// Every registered experiment must run end to end in quick mode
	// and produce non-trivial output. The heavyweight dual-methodology
	// runners are exercised separately to keep this test bounded.
	skip := map[string]bool{"fig10a": true, "fig10b": true, "fig11a": true, "fig11b": true, "fig12": true, "tab2": true}
	for _, e := range List() {
		if skip[e.Name] {
			continue
		}
		var buf bytes.Buffer
		opt := quickOpts()
		opt.Out = &buf
		if _, err := e.Run(opt); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if buf.Len() < 100 || !strings.Contains(buf.String(), "===") {
			t.Fatalf("%s output too small:\n%s", e.Name, buf.String())
		}
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("dual methodology is slow")
	}
	rows := Fig10Data(quickOpts())
	if len(rows) != 29 {
		t.Fatalf("%d rows", len(rows))
	}
	var cyc, cap, overall [3][]float64
	for _, r := range rows {
		for i := 0; i < 3; i++ {
			cyc[i] = append(cyc[i], r.CycleRel[i])
			cap[i] = append(cap[i], r.CapRel[i])
			overall[i] = append(overall[i], r.Overall[i])
		}
	}
	// Compresso's cycle-based geomean must beat LCP's (24% in the
	// paper; the gap, not the absolute, is the assertion).
	gLCP, gComp := stats.Geomean(cyc[0]), stats.Geomean(cyc[2])
	if gComp <= gLCP {
		t.Fatalf("compresso cycle geomean %.3f not above lcp %.3f", gComp, gLCP)
	}
	// Capacity: compresso >= lcp on average.
	if stats.Mean(cap[2]) < stats.Mean(cap[0]) {
		t.Fatalf("compresso capacity %.3f below lcp %.3f", stats.Mean(cap[2]), stats.Mean(cap[0]))
	}
	// Overall: compresso wins.
	if stats.Geomean(overall[2]) <= stats.Geomean(overall[0]) {
		t.Fatalf("compresso overall %.3f not above lcp %.3f",
			stats.Geomean(overall[2]), stats.Geomean(overall[0]))
	}
	t.Logf("cycle geomeans lcp/align/compresso: %.3f/%.3f/%.3f",
		stats.Geomean(cyc[0]), stats.Geomean(cyc[1]), stats.Geomean(cyc[2]))
	t.Logf("overall geomeans lcp/align/compresso: %.3f/%.3f/%.3f",
		stats.Geomean(overall[0]), stats.Geomean(overall[1]), stats.Geomean(overall[2]))
}
