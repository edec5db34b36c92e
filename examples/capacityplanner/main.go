// Capacityplanner: a datacenter-flavoured use of the capacity-impact
// methodology (§VI-A). Given a server consolidation scenario — a mix of
// services whose combined footprint exceeds the memory you want to
// buy — it sweeps memory budgets and reports how each memory system
// performs, answering "how much DRAM does Compresso save at equal
// performance?".
//
// Run with: go run ./examples/capacityplanner
package main

import (
	"fmt"
	"os"

	"compresso/internal/capacity"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

func main() {
	// The "services" running on the box: a database-ish pointer-heavy
	// service, an analytics job, a cache-friendly API server and a
	// graph service.
	mixNames := []string{"mcf", "soplex", "perlbench", "Pagerank"}
	var profs []workload.Profile
	var footprint int64
	for _, n := range mixNames {
		p, err := workload.ByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		profs = append(profs, p)
		footprint += int64(p.FootprintPages) * 4096
	}
	fmt.Printf("consolidating %v: combined footprint %d MB (scaled)\n\n",
		mixNames, footprint>>20)

	fmt.Println("Average service progress vs a fully-provisioned machine, by memory budget:")
	tbl := stats.NewTable("budget", "uncompressed", "lcp", "compresso", "unconstrained-bound")
	type point struct {
		frac                float64
		uncomp, lcp, compre float64
	}
	var points []point
	// Profile the consolidated trace once; each budget only replays it.
	cfg := capacity.DefaultConfig()
	cfg.Ops = 40_000
	cfg.FootprintScale = 8
	rec := capacity.Profile("planner", profs, cfg)
	for _, frac := range []float64{0.9, 0.8, 0.7, 0.6, 0.5} {
		out := rec.At(frac)
		// Normalize to the unconstrained bound: progress fraction.
		u := out.Unconstrained
		p := point{
			frac:   frac,
			uncomp: 1 / u,
			lcp:    out.RelPerf[capacity.LCP] / u,
			compre: out.RelPerf[capacity.Compresso] / u,
		}
		points = append(points, p)
		tbl.AddRow(fmt.Sprintf("%.0f%%", frac*100), p.uncomp, p.lcp, p.compre, 1.0)
	}
	tbl.Render(os.Stdout)

	// Find the smallest budget at which each system keeps >= 95% of
	// full-memory performance.
	fmt.Println("\nSmallest budget keeping >= 95% of full-memory performance:")
	report := func(name string, get func(point) float64) {
		best := "-"
		for i := len(points) - 1; i >= 0; i-- {
			if get(points[i]) >= 0.95 {
				best = fmt.Sprintf("%.0f%% of footprint", points[i].frac*100)
				break
			}
		}
		fmt.Printf("  %-14s %s\n", name, best)
	}
	report("uncompressed:", func(p point) float64 { return p.uncomp })
	report("lcp:", func(p point) float64 { return p.lcp })
	report("compresso:", func(p point) float64 { return p.compre })

	fmt.Println("\nCompresso needs no OS changes for this (§V): capacity is reclaimed")
	fmt.Println("through the standard ballooning driver when data turns incompressible.")
}
