// Package compresso_bench regenerates every table and figure of the
// paper's evaluation as Go benchmarks: one Benchmark per artifact (see
// DESIGN.md §4 for the index). Each benchmark prints the paper's
// rows/series once (first iteration) and reports the wall time of one
// full regeneration.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmarks default to the quick configuration so a full sweep
// stays in CI budgets; set -full to run at experiment scale:
//
//	go test -bench=BenchmarkFig10a -full -timeout 60m
package compresso_bench

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"compresso/internal/experiments"
)

var (
	fullScale = flag.Bool("full", false, "run benchmarks at full experiment scale")
	jobs      = flag.Int("jobs", 0, "parallel workers for experiment cells (0 = GOMAXPROCS)")
)

var printed sync.Map

// runExperiment executes a registered experiment b.N times, rendering
// its tables to stdout exactly once per process.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out := io.Writer(io.Discard)
		if _, already := printed.LoadOrStore(name, true); !already {
			out = os.Stdout
		}
		opt := experiments.Options{Out: out, Quick: !*fullScale, Seed: 42, Jobs: *jobs}
		if err := experiments.Run(name, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: compression ratios of {BPC, BDI} x
// {LinePack, LCP-packing} per benchmark (paper: 1.85x average for
// BPC+LinePack; LCP-packing loses 13% with BPC, 2.3% with BDI).
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig4 regenerates Fig. 4: extra data movement of the
// unoptimized compressed system, fixed 512 B chunks vs 4 variable
// chunk sizes (paper: 63% average, 180% max).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig6 regenerates Fig. 6: the optimization staircase
// (paper: 63% -> 36% -> 26% -> 19% -> 15%).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7: compression-ratio loss without
// dynamic repacking (paper: 24% of benefits squandered).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig9 regenerates Fig. 9: SimPoint vs CompressPoint
// compressibility representativeness on GemsFDTD and astar.
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10a regenerates Fig. 10a: single-core cycle-based and
// memory-capacity relative performance (paper cycle geomeans: LCP
// 0.938, LCP+Align 0.961, Compresso 0.998).
func BenchmarkFig10a(b *testing.B) { runExperiment(b, "fig10a") }

// BenchmarkFig10b regenerates Fig. 10b: single-core overall
// performance (paper: LCP 1.03, LCP+Align 1.06, Compresso 1.28).
func BenchmarkFig10b(b *testing.B) { runExperiment(b, "fig10b") }

// BenchmarkFig11a regenerates Fig. 11a: 4-core cycle-based and
// memory-capacity evaluation over the Tab. IV mixes.
func BenchmarkFig11a(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11b regenerates Fig. 11b: 4-core overall performance
// (paper: LCP 1.78, LCP+Align 1.90, Compresso 2.27).
func BenchmarkFig11b(b *testing.B) { runExperiment(b, "fig11b") }

// BenchmarkFig12 regenerates Fig. 12: DRAM and core energy relative to
// the uncompressed system (paper: Compresso saves 11% DRAM energy).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTab2 regenerates Tab. II: capacity speedups at 80/70/60%
// constrained memory for 1- and 4-core systems.
func BenchmarkTab2(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkAblationBins regenerates the §IV-A1 bin-count trade-off
// (paper: 8 line bins 1.82x vs 4 bins 1.59x with 17.5% more
// overflows; 8 page sizes 1.85x vs 4 sizes 1.59x).
func BenchmarkAblationBins(b *testing.B) { runExperiment(b, "ab-bins") }

// BenchmarkAblationAlign regenerates the §IV-B1 alignment search
// (paper: split lines 30.9% -> 3.2% for 0.25% compression).
func BenchmarkAblationAlign(b *testing.B) { runExperiment(b, "ab-align") }

// BenchmarkBPCVariants regenerates the §II-A claim that best-of-
// transform BPC saves ~13% more memory than always-transform BPC.
func BenchmarkBPCVariants(b *testing.B) { runExperiment(b, "bpc-variants") }

// BenchmarkRelatedDMC runs the §VIII related-work comparison against a
// DMC-style dual-compression controller.
func BenchmarkRelatedDMC(b *testing.B) { runExperiment(b, "related-dmc") }

// BenchmarkAttribution regenerates the cycle-accounting decomposition:
// each backend's exposed and hidden latency stack, with its hot-page
// profile.
func BenchmarkAttribution(b *testing.B) { runExperiment(b, "attribution") }

// BenchmarkBackendsRatio regenerates the registry-wide sweep's
// performance and compression ratio for every backend.
func BenchmarkBackendsRatio(b *testing.B) { runExperiment(b, "backends-ratio") }

// BenchmarkBackendsTraffic regenerates the registry-wide sweep's
// relative extra accesses for every backend.
func BenchmarkBackendsTraffic(b *testing.B) { runExperiment(b, "backends-traffic") }

// BenchmarkFleetPolicy regenerates the tier promotion/demotion policy
// ablation over a mixed-backend fleet.
func BenchmarkFleetPolicy(b *testing.B) { runExperiment(b, "fleet-policy") }

// BenchmarkFleetSweep regenerates the multi-node fleet rollup per
// backend: ratio, tier churn, move traffic and TCO.
func BenchmarkFleetSweep(b *testing.B) { runExperiment(b, "fleet-sweep") }

// BenchmarkOverlap regenerates the overlapped-controller timing model:
// cycles and the hidden-latency split against the serial model.
func BenchmarkOverlap(b *testing.B) { runExperiment(b, "overlap") }

// BenchmarkRunAllQuick times one full quick-mode sweep of every
// registered experiment through RunAll. Compare serial and parallel
// wall time with `make bench-quick` (or -jobs N by hand); the rendered
// output is byte-identical for every -jobs value, so only the wall
// time should differ.
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Out: io.Discard, Quick: true, Seed: 42, Jobs: *jobs}
		if err := experiments.RunAll(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab1 prints Tab. I (OS-aware vs OS-transparent challenges).
func BenchmarkTab1(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTab5 prints Tab. V (related-work summary matrix).
func BenchmarkTab5(b *testing.B) { runExperiment(b, "tab5") }

// TestEveryExperimentHasABenchmark parses this file and requires a
// runExperiment(b, "<name>") call for every registered experiment, so
// the promise of one Benchmark per artifact holds as experiments join
// the registry.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	benched := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "runExperiment" {
			return true
		}
		if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			benched[name] = true
		}
		return true
	})
	var missing []string
	for _, e := range experiments.List() {
		if !benched[e.Name] {
			missing = append(missing, e.Name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("experiments without a runExperiment benchmark: %s", strings.Join(missing, ", "))
	}
}
