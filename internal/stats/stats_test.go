package stats

import (
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 2, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Geomean(1,2,4) = %v, want 2", got)
	}
	got = Geomean([]float64{0.5, 2})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("Geomean(0.5,2) = %v, want 1", got)
	}
}

// TestGeomeanEmptyIsNaN pins the empty-slice contract. Pre-fix,
// Geomean(nil) returned 0 — a value the same function panics on as
// invalid *input* — so an empty backend column rendered as a
// legitimate-looking "0.000" geomean. Now it returns NaN, the
// package-wide "no meaningful value" marker, which Table renders as
// "n/a".
func TestGeomeanEmptyIsNaN(t *testing.T) {
	if got := Geomean(nil); !math.IsNaN(got) {
		t.Errorf("Geomean(nil) = %v, want NaN", got)
	}
	if got := Geomean([]float64{}); !math.IsNaN(got) {
		t.Errorf("Geomean(empty) = %v, want NaN", got)
	}
	tbl := NewTable("col", "geomean")
	tbl.AddRow("empty", Geomean(nil))
	if !strings.Contains(tbl.String(), "n/a") {
		t.Errorf("empty-column geomean renders as a number, want n/a:\n%s", tbl.String())
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero value")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, tc := range cases {
		got, ok := Percentile(xs, tc.p)
		if !ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v,%v, want %v,true", tc.p, got, ok, tc.want)
		}
	}
	if got, ok := Percentile(nil, 50); ok || got != 0 {
		t.Errorf("Percentile(nil, 50) = %v,%v, want 0,false", got, ok)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Percentile sorted caller's slice")
	}
}

// TestPercentileRejectsBadP pins the p-validation contract, mirroring
// the obs-side HistSnapshot.Percentile fix: p outside [0, 100] —
// including NaN — reports false instead of computing an index from it.
// Pre-fix, `pos := p/100*float64(len(s)-1)` with NaN p fed int(pos)
// an implementation-defined conversion (a potential out-of-bounds
// index); a negative p silently clamped to the minimum.
func TestPercentileRejectsBadP(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, p := range []float64{math.NaN(), -1, -0.001, 100.001, 200,
		math.Inf(1), math.Inf(-1)} {
		if got, ok := Percentile(xs, p); ok || got != 0 {
			t.Errorf("Percentile(xs, %v) = %v,%v, want 0,false", p, got, ok)
		}
	}
	for _, p := range []float64{0, 50, 100} {
		if _, ok := Percentile(xs, p); !ok {
			t.Errorf("Percentile(xs, %v) not ok, want valid", p)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("bench", "ratio")
	tbl.AddRow("gcc", 1.85)
	tbl.AddRow("mcf", 1.0)
	out := tbl.String()
	if !strings.Contains(out, "bench") || !strings.Contains(out, "1.850") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, sep, 2 rows), got %d:\n%s", len(lines), out)
	}
	// Columns align: both data rows start the ratio column at the same
	// byte offset.
	idx1 := strings.Index(lines[2], "1.850")
	idx2 := strings.Index(lines[3], "1.000")
	if idx1 != idx2 {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableMixedTypes(t *testing.T) {
	tbl := NewTable("a", "b", "c")
	tbl.AddRow(1, "x", 2.5)
	if !strings.Contains(tbl.String(), "2.500") {
		t.Error("float not formatted")
	}
}

func TestTableRendersNaNAsNA(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.AddRow("row", math.NaN())
	if !strings.Contains(tbl.String(), "n/a") {
		t.Errorf("NaN cell not rendered as n/a:\n%s", tbl.String())
	}
}

func TestPercentileEmptyInput(t *testing.T) {
	for _, p := range []float64{-1, 0, 50, 100, 200} {
		if got, ok := Percentile(nil, p); ok || got != 0 {
			t.Errorf("Percentile(nil, %v) = %v,%v, want 0,false", p, got, ok)
		}
	}
	// Single element: every percentile is that element.
	if got, ok := Percentile([]float64{7}, 50); !ok || got != 7 {
		t.Errorf("Percentile([7], 50) = %v,%v", got, ok)
	}
}
