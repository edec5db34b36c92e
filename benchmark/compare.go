package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runKey groups the runs of one metric on one workload in one mode.
type runKey struct {
	workload string
	trace    int
	metric   string
}

// runCompare compares two sets of runs stored with -out, per workload
// and metric: each set's median and spread (interquartile range over
// median), and whether the medians agree within the metric's bound in
// the spec. Metrics without a bound are listed without a verdict. It
// returns the exit code: 0 when every bounded metric agrees.
func runCompare(specPath string, files []string, out io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs exactly two -out files")
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var sets [2]map[runKey][]float64
	for i, f := range files {
		if sets[i], err = loadRuns(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	var keys []runKey
	for _, set := range sets {
		for k := range set {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.SortFunc(keys, func(a, b runKey) int {
		return cmp.Or(cmp.Compare(a.workload, b.workload), cmp.Compare(a.trace, b.trace), cmp.Compare(a.metric, b.metric))
	})
	code := 0
	fmt.Fprintf(out, "%-14s %-5s %-36s %5s %12s %7s %5s %12s %7s %8s %6s  %s\n",
		"workload", "trace", "metric", "n(a)", "median(a)", "iqr(a)", "n(b)", "median(b)", "iqr(b)", "diff", "bound", "verdict")
	for _, k := range keys {
		a, b := sets[0][k], sets[1][k]
		ma, mb := median(a), median(b)
		diff := 0.0
		if ma != 0 {
			diff = mb/ma - 1
		}
		verdict, boundText := "no bound", "-"
		if bound, ok := bounds[k.metric]; ok {
			boundText = fmt.Sprintf("%.0f%%", bound*100)
			switch {
			case len(a) == 0 || len(b) == 0:
				verdict, code = "missing", 1
			case math.Abs(diff) <= bound:
				verdict = "agree"
			default:
				verdict, code = "differ", 1
			}
		}
		fmt.Fprintf(out, "%-14s %-5d %-36s %5d %12.5g %6.1f%% %5d %12.5g %6.1f%% %+7.1f%% %6s  %s\n",
			k.workload, k.trace, k.metric, len(a), ma, spread(a)*100, len(b), mb, spread(b)*100, diff*100, boundText, verdict)
	}
	return code
}

// loadRuns reads the run records of one -out file.
func loadRuns(path string) (map[runKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[runKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, v := range rec.Metrics {
			k := runKey{workload: rec.Workload, trace: rec.Trace, metric: name}
			runs[k] = append(runs[k], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, nil
}
