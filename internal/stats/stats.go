// Package stats provides the small statistical and presentation
// helpers shared by the simulator and the experiment runners: means,
// percentiles, and fixed-width table rendering for reproducing the
// paper's tables and figure series as text.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs. Non-positive values are
// invalid for a geometric mean and cause a panic; callers compare
// relative performance numbers which are strictly positive. An empty
// slice has no geometric mean: it returns NaN, the package's "no
// meaningful value" marker, which Table.AddRow renders as "n/a".
// (Returning 0 here would render an empty column as a plausible
// "0.000" — a value this same function rejects as invalid input.)
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. It reports false for empty input or a p outside
// [0, 100] (including NaN), mirroring obs.HistSnapshot.Percentile: an
// out-of-range p is a caller bug, and computing an array index from a
// NaN position is implementation-defined.
func Percentile(xs []float64, p float64) (float64, bool) {
	if !(p >= 0 && p <= 100) {
		return 0, false
	}
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0 {
		return s[0], true
	}
	if p == 100 {
		return s[len(s)-1], true
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo], true
	}
	return s[lo]*(1-frac) + s[lo+1]*frac, true
}

// Table accumulates rows and renders them with aligned columns, used by
// the experiment runners to print the paper's tables and per-benchmark
// figure series.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells may be any fmt-able values. A NaN float
// renders as "n/a": it is the "no meaningful value" marker (e.g. the
// metadata-cache hit rate of an uncompressed run).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsNaN(v) {
				row[i] = "n/a"
			} else {
				row[i] = fmt.Sprintf("%.3f", v)
			}
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
