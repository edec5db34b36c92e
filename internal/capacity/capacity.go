// Package capacity implements the paper's memory-capacity impact
// evaluation (§VI-A), the half of the dual-simulation methodology that
// cycle simulators miss: how much performance a system gains because
// compression effectively enlarges a constrained memory.
//
// Methodology, mirroring the paper's two stages:
//
//  1. Profiling: the benchmark trace runs once at full footprint;
//     at every interval boundary the per-system storage ratio of the
//     evolving image is measured (the paper pauses real runs every
//     200M instructions and dumps memory). LCP-style systems never
//     repack, so their per-page storage is tracked as a high
//     watermark; Compresso's repacking keeps it at the fresh packing.
//  2. Constrained replay: the recorded page-touch stream replays
//     through an LRU pager whose byte budget is the constrained
//     fraction of the footprint, scaled each interval by the system's
//     measured ratio (the paper's dynamic cgroups adjustment). Page
//     faults cost SwapCostOps operation-equivalents.
//
// The stages are separate calls: Profile (ProfileMix for a mix) runs
// stage 1 once, and the returned profile's At replays it at any number
// of fractions. Evaluate and EvaluateMix do both for one fraction.
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
	// Frac constrains memory to this fraction of the footprint
	// (Tab. II evaluates 0.8, 0.7, 0.6).
	Frac float64
	// Ops is the trace length (the paper's full-run analogue).
	Ops uint64
	// Intervals is the number of profiling intervals.
	Intervals int
	// Seed drives the workload.
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

// DefaultConfig returns the standard setup at the given constrained
// fraction.
func DefaultConfig(frac float64) Config {
	return Config{
		Frac:           frac,
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

// Outcome is one benchmark's capacity evaluation.
type Outcome struct {
	Bench string
	Frac  float64

	// RelPerf is performance relative to the constrained uncompressed
	// baseline, per sizer; Unconstrained is the upper bound.
	RelPerf       [NSizers]float64
	Unconstrained float64

	Faults        [NSizers]uint64
	BaselineRate  float64 // baseline fault rate per op
	MeanRatio     [NSizers]float64
	FootprintB    int64
	RecordedTouch int
}

// Evaluate runs the full two-stage methodology for one benchmark at
// cfg.Frac.
func Evaluate(prof workload.Profile, cfg Config) Outcome {
	return Profile(prof, cfg).At(cfg.Frac)
}

// BenchProfile is one benchmark's stage-1 result: the recorded page
// touches and the per-interval storage ratios of every sizer. Neither
// depends on the constrained fraction, so one profile serves every
// fraction's replay (Tab. II's 80/70/60% share one).
type BenchProfile struct {
	bench     string
	touches   []uint32
	ratios    [][NSizers]float64
	interval  uint64
	footprint int64
	swapCost  float64
}

// Profile runs stage 1 for one benchmark: the trace, the storage
// tracker and the per-interval ratios. cfg.Frac is not used.
func Profile(prof workload.Profile, cfg Config) *BenchProfile {
	prof = workload.Scale(prof, cfg.FootprintScale)
	tr := workload.NewTrace(prof, cfg.Seed, cfg.Ops)
	trk := newTracker(tr.Image(), cfg.Jobs)

	touches := make([]uint32, 0, cfg.Ops)
	ratios := make([][NSizers]float64, 0, cfg.Intervals)
	interval := cfg.Ops / uint64(cfg.Intervals)
	if interval == 0 {
		interval = 1
	}
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		tr.Next(&op)
		touches = append(touches, uint32(op.LineAddr/memctl.LinesPerPage))
		if op.Write {
			trk.noteStore(op.LineAddr)
		}
		if (i+1)%interval == 0 && len(ratios) < cfg.Intervals {
			trk.refresh()
			ratios = append(ratios, trk.ratios())
		}
	}
	for len(ratios) < cfg.Intervals {
		trk.refresh()
		ratios = append(ratios, trk.ratios())
	}
	return &BenchProfile{
		bench:     prof.Name,
		touches:   touches,
		ratios:    ratios,
		interval:  interval,
		footprint: int64(prof.FootprintPages) * memctl.PageSize,
		swapCost:  cfg.SwapCostOps,
	}
}

// At runs stage 2, the constrained replays, with memory constrained to
// frac of the footprint.
func (p *BenchProfile) At(frac float64) Outcome {
	out := Outcome{
		Bench:         p.bench,
		Frac:          frac,
		FootprintB:    p.footprint,
		RecordedTouch: len(p.touches),
	}
	var times [NSizers]float64
	for s := Sizer(0); s < NSizers; s++ {
		faults := replay(p.touches, p.interval, func(iv int) int64 {
			r := p.ratios[clampIdx(iv, len(p.ratios))][s]
			return int64(frac * float64(p.footprint) * r)
		})
		out.Faults[s] = faults
		times[s] = float64(len(p.touches)) + float64(faults)*p.swapCost
		total := 0.0
		for _, rv := range p.ratios {
			total += rv[s]
		}
		out.MeanRatio[s] = total / float64(len(p.ratios))
	}
	base := times[Uncompressed]
	for s := Sizer(0); s < NSizers; s++ {
		out.RelPerf[s] = base / times[s]
	}
	out.Unconstrained = base / float64(len(p.touches))
	out.BaselineRate = float64(out.Faults[Uncompressed]) / float64(len(p.touches))
	return out
}

func clampIdx(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

// replay runs the touch stream through an LRU pager whose budget is
// refreshed per interval, returning the fault count.
func replay(touches []uint32, interval uint64, budget func(iv int) int64) uint64 {
	pager := oskernel.NewPager(budget(0))
	for i, page := range touches {
		if i > 0 && uint64(i)%interval == 0 {
			pager.SetBudget(budget(int(uint64(i) / interval)))
		}
		pager.Touch(uint64(page))
	}
	return pager.Faults()
}

// MixOutcome is a 4-core capacity evaluation (Fig. 11a's mem-cap
// bars): cores share a constrained budget; the metric is the average
// per-core relative progress, the paper's §VI-E workload metric.
type MixOutcome struct {
	MixName       string
	RelPerf       [NSizers]float64
	Unconstrained float64
}

// EvaluateMix runs the methodology for a multi-core mix with a shared
// budget at cfg.Frac.
func EvaluateMix(mixName string, profs []workload.Profile, cfg Config) MixOutcome {
	return ProfileMix(mixName, profs, cfg).At(cfg.Frac)
}

// MixProfile is a mix's stage-1 result: the interleaved touch stream
// and the combined per-interval ratios, shared by every fraction's
// replay.
type MixProfile struct {
	name      string
	cores     int
	ops       uint64
	steps     []mixStep
	ratios    [][NSizers]float64
	interval  uint64
	footprint int64
	swapCost  float64
}

// mixStep is one touch of the interleaved stream: a global page id and
// the core that made it.
type mixStep struct {
	page uint32
	core uint8
}

// ProfileMix runs stage 1 for a multi-core mix. Streams interleave
// round-robin (always under contention); cfg.Frac is not used.
func ProfileMix(mixName string, profs []workload.Profile, cfg Config) *MixProfile {
	n := len(profs)
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	var footprint int64
	pageBase := make([]uint64, n)
	var nextPage uint64
	for i := range profs {
		p := workload.Scale(profs[i], cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, cfg.Seed+uint64(i)*7919, cfg.Ops)
		trackers[i] = newTracker(traces[i].Image(), cfg.Jobs)
		pageBase[i] = nextPage
		nextPage += uint64(p.FootprintPages)
		footprint += int64(p.FootprintPages) * memctl.PageSize
	}

	stepsTotal := cfg.Ops * uint64(n)
	steps := make([]mixStep, 0, stepsTotal)
	interval := stepsTotal / uint64(cfg.Intervals)
	if interval == 0 {
		interval = 1
	}
	ratios := make([][NSizers]float64, 0, cfg.Intervals)
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		for c := 0; c < n; c++ {
			traces[c].Next(&op)
			if op.Write {
				trackers[c].noteStore(op.LineAddr)
			}
			steps = append(steps, mixStep{
				page: uint32(pageBase[c] + op.LineAddr/memctl.LinesPerPage),
				core: uint8(c),
			})
			if uint64(len(steps))%interval == 0 && len(ratios) < cfg.Intervals {
				ratios = append(ratios, combinedRatios(trackers))
			}
		}
	}
	for len(ratios) < cfg.Intervals {
		ratios = append(ratios, combinedRatios(trackers))
	}
	return &MixProfile{
		name:      mixName,
		cores:     n,
		ops:       cfg.Ops,
		steps:     steps,
		ratios:    ratios,
		interval:  interval,
		footprint: footprint,
		swapCost:  cfg.SwapCostOps,
	}
}

// At runs stage 2 for the mix: shared-budget replays at frac of the
// combined footprint, faults attributed per core.
func (p *MixProfile) At(frac float64) MixOutcome {
	n := p.cores
	out := MixOutcome{MixName: p.name}
	var times [NSizers][]float64
	var baseTimes []float64
	for s := Sizer(0); s < NSizers; s++ {
		pager := oskernel.NewPager(int64(frac * float64(p.footprint) * p.ratios[0][s]))
		coreFaults := make([]uint64, n)
		for i, st := range p.steps {
			if i > 0 && uint64(i)%p.interval == 0 {
				iv := clampIdx(int(uint64(i)/p.interval), len(p.ratios))
				pager.SetBudget(int64(frac * float64(p.footprint) * p.ratios[iv][s]))
			}
			if pager.Touch(uint64(st.page)) {
				coreFaults[st.core]++
			}
		}
		perCore := make([]float64, n)
		for c := 0; c < n; c++ {
			perCore[c] = float64(p.ops) + float64(coreFaults[c])*p.swapCost
		}
		times[s] = perCore
		if s == Uncompressed {
			baseTimes = perCore
		}
	}
	for s := Sizer(0); s < NSizers; s++ {
		total := 0.0
		for c := 0; c < n; c++ {
			total += baseTimes[c] / times[s][c]
		}
		out.RelPerf[s] = total / float64(n)
	}
	total := 0.0
	for c := 0; c < n; c++ {
		total += baseTimes[c] / float64(p.ops)
	}
	out.Unconstrained = total / float64(n)
	return out
}

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
