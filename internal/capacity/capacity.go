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
//  2. Constrained replay: the recorded touches replay through an LRU
//     pager whose byte budget is the constrained fraction of the
//     footprint, scaled each interval by the system's measured ratio
//     (the paper's dynamic cgroups adjustment). Page faults cost
//     SwapCostOps operation-equivalents. Stage 1 stores each touch's
//     LRU stack depth (Mattson et al., 1970), so the replay of every
//     sizer at any fraction is one integer pass: a touch hits exactly
//     when its depth is at most the sizer's resident page count.
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
	"math"

	"compresso/internal/memctl"
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
	// Seed drives the workload; core i of a mix uses
	// workload.CoreSeed(Seed, i).
	Seed uint64
	// SwapCostOps is a page fault's cost in operation-equivalents.
	// Our synthetic traces fault far more often per operation than
	// SPEC's strongly page-local streams, so the default calibrates
	// the fault-rate x fault-cost *product* against the paper's
	// anchor (unconstrained memory ~1.39x the 70%-constrained
	// baseline, Tab. II) rather than using a physical swap latency.
	SwapCostOps float64
	// FootprintScale divides every profile's footprint
	// (workload.Scale). The paper's footprints are scale 1; the
	// experiments' capacity cells (Tab. II, Figs. 10 and 11) run at the
	// sweep's scale, 4 (16 in quick mode).
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

// Recording is stage 1's result: each touch's LRU stack depth and the
// core that made it, and the combined per-interval storage ratios of
// every sizer. None of it depends on the constrained fraction, so one
// recording serves every fraction's replay (Tab. II's 80/70/60% share
// one).
type Recording struct {
	name      string
	ops       uint64 // per core
	nCores    int
	depths    []uint32 // per touch: LRU stack depth, 0 on a page's first touch
	cores     []uint8
	ratios    [][NSizers]float64
	interval  uint64
	footprint int64
	swapCost  float64
}

// maxTouches bounds a recording's length: touch times index the depth
// pass's Fenwick tree as int32.
const maxTouches = math.MaxInt32

// touchCount returns the length of the interleaved stream of ops
// touches per core on cores cores, panicking when the depth pass could
// not index it.
func touchCount(ops uint64, cores int) int {
	if ops > maxTouches/uint64(cores) {
		panic(fmt.Sprintf("capacity: %d ops x %d cores exceeds the %d touches the stack-depth pass can index",
			ops, cores, maxTouches))
	}
	return int(ops) * cores
}

// Profile runs stage 1 for a benchmark (profs of length 1) or a
// multi-core mix: the traces, the storage trackers, the touches' stack
// depths and the combined per-interval ratios. A mix's streams
// interleave round-robin (always under contention) over disjoint page
// ranges.
func Profile(name string, profs []workload.Profile, cfg Config) *Recording {
	n := len(profs)
	if n == 0 || n > 256 {
		panic(fmt.Sprintf("capacity: %d cores, want 1..256", n))
	}
	total := touchCount(cfg.Ops, n)
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	pageBase := make([]uint32, n)
	var footprint int64
	var nextPage uint32
	for i := range profs {
		p := workload.Scale(profs[i], cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, workload.CoreSeed(cfg.Seed, i), cfg.Ops)
		trackers[i] = newTracker(traces[i].Image(), cfg.Jobs)
		pageBase[i] = nextPage
		nextPage += uint32(p.FootprintPages)
		footprint += int64(p.FootprintPages) * memctl.PageSize
	}

	r := &Recording{
		name:      name,
		ops:       cfg.Ops,
		nCores:    n,
		depths:    make([]uint32, 0, total),
		cores:     make([]uint8, 0, total),
		ratios:    make([][NSizers]float64, 0, cfg.Intervals),
		interval:  max(uint64(total)/uint64(cfg.Intervals), 1),
		footprint: footprint,
		swapCost:  cfg.SwapCostOps,
	}
	stack := newStackDepths(total, int(nextPage))
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		for c := 0; c < n; c++ {
			traces[c].Next(&op)
			if op.Write {
				trackers[c].noteStore(op.LineAddr)
			}
			r.depths = append(r.depths, stack.touch(pageBase[c]+uint32(op.LineAddr/memctl.LinesPerPage)))
			r.cores = append(r.cores, uint8(c))
			if uint64(len(r.depths))%r.interval == 0 && len(r.ratios) < cfg.Intervals {
				r.ratios = append(r.ratios, combinedRatios(trackers))
			}
		}
	}
	for len(r.ratios) < cfg.Intervals {
		r.ratios = append(r.ratios, combinedRatios(trackers))
	}
	return r
}

// stackDepths computes LRU stack depths in one pass (Mattson et al.,
// "Evaluation techniques for storage hierarchies", IBM Systems Journal
// 1970). A touch's depth is the number of distinct pages touched since
// the page's previous touch, the page itself included: its position in
// the recency stack, 1 on top. A page's first touch has depth 0.
//
// Every touched page keeps one mark, at the time of its latest touch,
// in a Fenwick tree over touch times; the depth is the number of marks
// at or after the page's previous touch.
type stackDepths struct {
	tree  []int32 // Fenwick tree over touch times 1..len(tree)-1
	last  []int32 // per page: time of its latest touch, 0 when untouched
	now   int32   // time of the latest touch
	marks int32   // distinct pages touched so far
}

// newStackDepths sizes the pass for touches touches of page ids below
// pages.
func newStackDepths(touches, pages int) *stackDepths {
	return &stackDepths{tree: make([]int32, touches+1), last: make([]int32, pages)}
}

// touch records the next touch of page and returns its stack depth.
func (d *stackDepths) touch(page uint32) uint32 {
	d.now++
	prev := d.last[page]
	d.last[page] = d.now
	var depth uint32
	if prev == 0 {
		d.marks++
	} else {
		depth = uint32(d.marks - d.prefix(prev-1))
		d.add(prev, -1)
	}
	d.add(d.now, 1)
	return depth
}

// prefix returns the number of marks at times 1..t.
func (d *stackDepths) prefix(t int32) int32 {
	var sum int32
	for ; t > 0; t &= t - 1 {
		sum += d.tree[t]
	}
	return sum
}

// add adds v to the mark count at time t.
func (d *stackDepths) add(t, v int32) {
	for n := int32(len(d.tree)); t < n; t += t & -t {
		d.tree[t] += v
	}
}

// At runs stage 2 at one constrained fraction: AtEach of frac alone.
func (r *Recording) At(frac float64) Outcome {
	return r.AtEach([]float64{frac})[0]
}

// AtEach runs stage 2 at each of fracs in one walk over the recording:
// per fraction, one LRU replay per sizer through a pager shared by
// every core, whose budget is that fraction of the combined footprint
// scaled by the sizer's ratio of the current interval. Faults are
// attributed to the core that took them and cost SwapCostOps each.
// Each Outcome is exactly At's for its fraction.
func (r *Recording) AtEach(fracs []float64) []Outcome {
	coreFaults := replayDepths(r.depths, r.cores, r.nCores, r.interval, len(fracs), func(iv, lane int, s Sizer) int64 {
		return int64(fracs[lane] * float64(r.footprint) * r.ratios[min(iv, len(r.ratios)-1)][s])
	})
	var meanRatio [NSizers]float64
	for s := Sizer(0); s < NSizers; s++ {
		total := 0.0
		for _, rv := range r.ratios {
			total += rv[s]
		}
		meanRatio[s] = total / float64(len(r.ratios))
	}
	opTime := func(faults uint64) float64 { return float64(r.ops) + float64(faults)*r.swapCost }
	outs := make([]Outcome, len(fracs))
	for lane, frac := range fracs {
		out := Outcome{
			Bench:         r.name,
			Frac:          frac,
			MeanRatio:     meanRatio,
			FootprintB:    r.footprint,
			RecordedTouch: len(r.depths),
		}
		faults := coreFaults[lane]
		for s := Sizer(0); s < NSizers; s++ {
			total := 0.0
			for _, f := range faults {
				out.Faults[s] += f[s]
				total += opTime(f[Uncompressed]) / opTime(f[s])
			}
			out.RelPerf[s] = total / float64(r.nCores)
		}
		total := 0.0
		for _, f := range faults {
			total += opTime(f[Uncompressed]) / float64(r.ops)
		}
		out.Unconstrained = total / float64(r.nCores)
		out.BaselineRate = float64(out.Faults[Uncompressed]) / float64(len(r.depths))
		outs[lane] = out
	}
	return outs
}

// replayDepths replays a touch stream, given as stack depths and the
// core behind each touch, through lanes sets of one LRU pager per sizer
// in a single pass, and returns each lane's faults per core and sizer.
// budget(iv, lane, s) is lane's sizer s byte budget in interval iv,
// each interval being interval touches long; a negative budget is
// unconstrained.
//
// An LRU pager whose capacity changes only between touches always
// holds the top r pages of the recency stack, r being its resident
// count. So a touch hits exactly when its depth is nonzero and at most
// r; a fault sets r to min(r+1, cap), cap being the budget in whole
// pages; a budget change sets r to min(r, cap). The result equals
// driving an oskernel.Pager per lane and sizer
// (FuzzStackReplayMatchesPager).
func replayDepths(depths []uint32, cores []uint8, nCores int, interval uint64, lanes int,
	budget func(iv, lane int, s Sizer) int64) [][][NSizers]uint64 {
	// One flat state of lanes x NSizers pagers: pager k is lane
	// k/NSizers, sizer k%NSizers. counts holds each core's faults per
	// pager, core after core.
	n := lanes * int(NSizers)
	resident := make([]uint64, n)
	capacity := make([]uint64, n)
	counts := make([]uint64, nCores*n)
	for start, iv := 0, 0; start < len(depths); start, iv = start+int(interval), iv+1 {
		for k := range capacity {
			capacity[k] = math.MaxUint64
			if b := budget(iv, k/int(NSizers), Sizer(k%int(NSizers))); b >= 0 {
				capacity[k] = uint64(b / memctl.PageSize)
			}
			resident[k] = min(resident[k], capacity[k])
		}
		end := min(start+int(interval), len(depths))
		for i, d := range depths[start:end] {
			c := int(cores[start+i]) * n
			f, cp := counts[c:c+n], capacity[:n]
			for k, r := range resident[:n] {
				if d == 0 || uint64(d) > r {
					f[k]++
					if r < cp[k] {
						resident[k] = r + 1
					}
				}
			}
		}
	}
	faults := make([][][NSizers]uint64, lanes)
	for lane := range faults {
		faults[lane] = make([][NSizers]uint64, nCores)
		for core := range faults[lane] {
			copy(faults[lane][core][:], counts[core*n+lane*int(NSizers):])
		}
	}
	return faults
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
