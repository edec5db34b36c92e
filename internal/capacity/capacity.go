// Package capacity implements the paper's memory-capacity impact
// evaluation (§VI-A), the half of the dual-simulation methodology that
// cycle simulators miss: how much performance a system gains because
// compression effectively enlarges a constrained memory.
//
// Methodology, mirroring the paper's two stages:
//
//  1. Profiling: the trace runs once at full footprint; at every
//     interval boundary the per-system storage ratio of the evolving
//     image is measured (the paper pauses real runs every 200M
//     instructions and dumps memory). LCP-style systems never repack,
//     so their per-page storage is tracked as a high watermark;
//     Compresso's repacking keeps it at the fresh packing.
//  2. Constrained replay: the recorded page-touch stream replays
//     through an LRU pager whose byte budget is the constrained
//     fraction of the footprint, scaled each interval by the system's
//     measured ratio (the paper's dynamic cgroups adjustment). Page
//     faults cost SwapCostOps operation-equivalents.
//
// A benchmark is a one-core mix, so there is one path for both:
// Profile runs stage 1 once over one or more cores and returns a
// Recording, and the Recording's At replays it at any number of
// fractions. A mix's cores share one budget, and its relative
// performance is the average per-core relative progress (§VI-E).
//
// Relative performance is the baseline (constrained, uncompressed)
// time over the system's time, exactly the quantity in Fig. 10a's
// "Mem-Cap Impact" bars and Tab. II.
package capacity

import (
	"fmt"

	"compresso/internal/memctl"
	"compresso/internal/oskernel"
	"compresso/internal/workload"
)

// Sizer identifies a storage model whose capacity effect is evaluated.
type Sizer int

// The evaluated storage models.
const (
	Uncompressed Sizer = iota
	Compresso
	CompressoNoRepack // §IV-B4 ablation (Fig. 7)
	LCP
	LCPAlign
	NSizers
)

// String names the sizer.
func (s Sizer) String() string {
	switch s {
	case Uncompressed:
		return "uncompressed"
	case Compresso:
		return "compresso"
	case CompressoNoRepack:
		return "compresso-norepack"
	case LCP:
		return "lcp"
	case LCPAlign:
		return "lcp-align"
	}
	return fmt.Sprintf("Sizer(%d)", int(s))
}

// Config parameterizes a capacity evaluation.
type Config struct {
	// Ops is the trace length per core (the paper's full-run analogue).
	Ops uint64
	// Intervals is the number of profiling intervals.
	Intervals int
	// Seed drives the workload; core i of a mix uses Seed+i*7919.
	Seed uint64
	// SwapCostOps is a page fault's cost in operation-equivalents.
	// Our synthetic traces fault far more often per operation than
	// SPEC's strongly page-local streams, so the default calibrates
	// the fault-rate x fault-cost *product* against the paper's
	// anchor (unconstrained memory ~1.39x the 70%-constrained
	// baseline, Tab. II) rather than using a physical swap latency.
	SwapCostOps float64
	// FootprintScale divides footprints (test speed knob).
	FootprintScale int
	// Jobs bounds the worker pool for the tracker's batched
	// construction scans (0 = all cores). Results are byte-identical
	// at any value (DESIGN.md §7).
	Jobs int
}

// DefaultConfig returns the standard setup.
func DefaultConfig() Config {
	return Config{
		Ops:            600_000,
		Intervals:      12,
		Seed:           42,
		SwapCostOps:    12,
		FootprintScale: 1,
		// Serial by default: capacity cells usually already run inside
		// an experiment grid's worker pool; the CLI's direct -capacity
		// path raises this to its -jobs.
		Jobs: 1,
	}
}

// Outcome is one capacity evaluation of a benchmark or a mix at one
// constrained fraction.
type Outcome struct {
	Bench string // the benchmark's or the mix's name
	Frac  float64

	// RelPerf is the average per-core progress relative to the
	// constrained uncompressed baseline, per sizer (the paper's §VI-E
	// metric; a benchmark's own relative performance on one core);
	// Unconstrained is the upper bound.
	RelPerf       [NSizers]float64
	Unconstrained float64

	Faults        [NSizers]uint64 // summed over cores
	BaselineRate  float64         // baseline faults per recorded touch
	MeanRatio     [NSizers]float64
	FootprintB    int64
	RecordedTouch int
}

// Recording is stage 1's result: the interleaved page-touch stream,
// the core behind each touch, and the combined per-interval storage
// ratios of every sizer. None of it depends on the constrained
// fraction, so one recording serves every fraction's replay (Tab. II's
// 80/70/60% share one).
type Recording struct {
	name      string
	ops       uint64 // per core
	nCores    int
	pages     []uint32
	cores     []uint8
	ratios    [][NSizers]float64
	interval  uint64
	footprint int64
	swapCost  float64
}

// Profile runs stage 1 for a benchmark (profs of length 1) or a
// multi-core mix: the traces, the storage trackers and the combined
// per-interval ratios. A mix's streams interleave round-robin (always
// under contention) over disjoint page ranges.
func Profile(name string, profs []workload.Profile, cfg Config) *Recording {
	n := len(profs)
	if n == 0 || n > 256 {
		panic(fmt.Sprintf("capacity: %d cores, want 1..256", n))
	}
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	pageBase := make([]uint64, n)
	var footprint int64
	var nextPage uint64
	for i := range profs {
		p := workload.Scale(profs[i], cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, cfg.Seed+uint64(i)*7919, cfg.Ops)
		trackers[i] = newTracker(traces[i].Image(), cfg.Jobs)
		pageBase[i] = nextPage
		nextPage += uint64(p.FootprintPages)
		footprint += int64(p.FootprintPages) * memctl.PageSize
	}

	total := cfg.Ops * uint64(n)
	r := &Recording{
		name:      name,
		ops:       cfg.Ops,
		nCores:    n,
		pages:     make([]uint32, 0, total),
		cores:     make([]uint8, 0, total),
		ratios:    make([][NSizers]float64, 0, cfg.Intervals),
		interval:  max(total/uint64(cfg.Intervals), 1),
		footprint: footprint,
		swapCost:  cfg.SwapCostOps,
	}
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		for c := 0; c < n; c++ {
			traces[c].Next(&op)
			if op.Write {
				trackers[c].noteStore(op.LineAddr)
			}
			r.pages = append(r.pages, uint32(pageBase[c]+op.LineAddr/memctl.LinesPerPage))
			r.cores = append(r.cores, uint8(c))
			if uint64(len(r.pages))%r.interval == 0 && len(r.ratios) < cfg.Intervals {
				r.ratios = append(r.ratios, combinedRatios(trackers))
			}
		}
	}
	for len(r.ratios) < cfg.Intervals {
		r.ratios = append(r.ratios, combinedRatios(trackers))
	}
	return r
}

// At runs stage 2: one LRU replay per sizer through a pager shared by
// every core, whose budget is frac of the combined footprint scaled by
// the sizer's ratio of the current interval. Faults are attributed to
// the core that took them and cost SwapCostOps each.
func (r *Recording) At(frac float64) Outcome {
	out := Outcome{
		Bench:         r.name,
		Frac:          frac,
		FootprintB:    r.footprint,
		RecordedTouch: len(r.pages),
	}
	budget := func(iv int, s Sizer) int64 {
		return int64(frac * float64(r.footprint) * r.ratios[min(iv, len(r.ratios)-1)][s])
	}
	var coreFaults [NSizers][]uint64
	for s := Sizer(0); s < NSizers; s++ {
		pager := oskernel.NewPager(budget(0, s))
		faults := make([]uint64, r.nCores)
		for i, page := range r.pages {
			if i > 0 && uint64(i)%r.interval == 0 {
				pager.SetBudget(budget(int(uint64(i)/r.interval), s))
			}
			if pager.Touch(uint64(page)) {
				faults[r.cores[i]]++
			}
		}
		coreFaults[s] = faults
		out.Faults[s] = pager.Faults()
		total := 0.0
		for _, rv := range r.ratios {
			total += rv[s]
		}
		out.MeanRatio[s] = total / float64(len(r.ratios))
	}

	opTime := func(faults uint64) float64 { return float64(r.ops) + float64(faults)*r.swapCost }
	base := coreFaults[Uncompressed]
	for s := Sizer(0); s < NSizers; s++ {
		total := 0.0
		for c, f := range coreFaults[s] {
			total += opTime(base[c]) / opTime(f)
		}
		out.RelPerf[s] = total / float64(r.nCores)
	}
	total := 0.0
	for _, f := range base {
		total += opTime(f) / float64(r.ops)
	}
	out.Unconstrained = total / float64(r.nCores)
	out.BaselineRate = float64(out.Faults[Uncompressed]) / float64(len(r.pages))
	return out
}

// combinedRatios refreshes every core's tracker and returns the mix's
// footprint over its storage, per sizer.
func combinedRatios(trackers []*tracker) [NSizers]float64 {
	var out [NSizers]float64
	var fp int64
	var store [NSizers]int64
	for _, t := range trackers {
		t.refresh()
		fp += t.footprintBytes()
		for s := Sizer(0); s < NSizers; s++ {
			store[s] += t.storageBytes(s)
		}
	}
	for s := Sizer(0); s < NSizers; s++ {
		if store[s] <= 0 {
			out[s] = float64(fp)
			continue
		}
		out[s] = float64(fp) / float64(store[s])
	}
	return out
}

// OverallPerformance combines a cycle-based relative performance with
// a capacity relative performance multiplicatively, the paper's §VI-F
// overall metric.
func OverallPerformance(cycleRel, capacityRel float64) float64 {
	return cycleRel * capacityRel
}
