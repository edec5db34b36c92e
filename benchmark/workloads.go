package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"compresso/internal/compress"
	"compresso/internal/experiments"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// spec is one benchmark workload. Sizes were chosen so that one
// repetition takes 2-5 s on the 2-vCPU reference host (quick-sweep:
// 10-17 s), letting a 20 s run take several repetitions.
type spec struct {
	name string
	why  string

	// mix names the Tab. IV mix run through sim.RunMix; empty runs the
	// single benchmark benches[0] through sim.RunSingle.
	mix     string
	benches []string
	systems []sim.System
	ops     uint64 // trace ops per core

	// observe turns on the attribution ledger, the controller-event
	// ring and the metrics sampler, as `-compare -attribution -serve`
	// does.
	observe bool

	// sweep runs experiments.RunAll in quick mode instead of simulation
	// cells; none of the fields above apply.
	sweep bool
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []spec{
	{
		name:    "mix1-paper",
		why:     "the paper's 4-core mix1 on its four systems: the cpu-cache-memctl-dram hot loop with eager BPC sizing in set-up, no LZ, no observers",
		mix:     "mix1",
		benches: []string{"mcf", "GemsFDTD", "libquantum", "soplex"},
		systems: sim.Systems(),
		ops:     150_000,
	},
	{
		name:    "gems-observed",
		why:     "write-heavy GemsFDTD single-core with observers on: overflow, repack and observer paths that mix1-paper barely touches",
		benches: []string{"GemsFDTD"},
		systems: sim.Systems(),
		ops:     1_000_000,
		observe: true,
	},
	{
		name:    "lz-gcc",
		why:     "gcc on the LZ-priced dmc and mxt backends: nearly all host time is LZ matching, which the other workloads never run",
		benches: []string{"gcc"},
		systems: []sim.System{sim.DMC, sim.MXT},
		ops:     30_000,
	},
	{
		name:  "quick-sweep",
		why:   "every experiment in quick mode on two workers, as `compresso-sim -exp all -quick -jobs 2`: grids, memos, capacity and fleet",
		sweep: true,
	},
}

func lookup(name string) (*spec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sweepJobs is quick-sweep's worker count, bounded by the host's CPUs.
func sweepJobs() int { return min(2, runtime.NumCPU()) }

// seedStride is the per-core seed offset sim.PrepareAssets, RunSingle
// and RunMix derive each core's workload seed with.
const seedStride = 7919

// sizeCodec is the codec the shared assets are sized with, as in
// `compresso-sim -compare` and `-mix`.
var sizeCodec compress.Codec = compress.BPC{}

func (w *spec) profiles() []workload.Profile {
	profs := make([]workload.Profile, len(w.benches))
	for i, b := range w.benches {
		p, err := workload.ByName(b)
		if err != nil {
			panic(err) // the workload table names only known benchmarks
		}
		profs[i] = p
	}
	return profs
}

// config is the sim.Config of one system's cell.
func (w *spec) config(sys sim.System, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sys)
	cfg.Ops = w.ops
	cfg.Seed = seed
	if w.observe {
		cfg = withObservers(cfg)
	}
	return cfg
}

// describe is the workload's configuration as recorded in result files.
func (w *spec) describe() map[string]any {
	if w.sweep {
		return map[string]any{"runall": true, "quick": true, "jobs": sweepJobs()}
	}
	systems := make([]string, len(w.systems))
	for i, s := range w.systems {
		systems[i] = string(s)
	}
	return map[string]any{
		"mix": w.mix, "benches": w.benches, "systems": systems, "ops_per_core": w.ops,
		"scale": 1, "observers": w.observe, "assets_codec": sizeCodec.Name(), "assets_jobs": 1,
	}
}

// repRecord is what one repetition reports to the parent process.
type repRecord struct {
	Kind      string             `json:"kind"`
	SetupS    float64            `json:"setup_s"` // asset preparation
	RunS      float64            `json:"run_s"`   // inside the run calls
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Ops       uint64             `json:"ops"` // demand ops simulated
	Cells     []cellOutcome      `json:"cells"`
	Model     map[string]float64 `json:"model,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// allocMB returns the bytes allocated since before, in MB.
func allocMB(before uint64) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-before) / 1e6
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// plainRep runs one untraced repetition through the simulator's public
// entry points: sim.PrepareAssets, then sim.RunMix or sim.RunSingle
// per system (or experiments.RunAll for the sweep).
func (w *spec) plainRep(seed uint64) repRecord {
	if w.sweep {
		return sweepRep(seed, nil)
	}
	profs := w.profiles()
	alloc0 := totalAlloc()
	t0 := time.Now()
	assets, err := protect(func() *sim.MixAssets {
		return sim.PrepareAssets(profs, w.config(w.systems[0], seed), sizeCodec, 1)
	})
	if err != nil {
		return repRecord{Cells: []cellOutcome{{Name: "setup", Err: err.Error()}}}
	}
	setup := time.Since(t0)
	var run time.Duration
	cells := make([]cellResult, len(w.systems))
	for i, sys := range w.systems {
		cfg := w.config(sys, seed)
		cfg.Assets = assets
		t := time.Now()
		cells[i] = w.simCell(profs, cfg)
		run += time.Since(t)
	}
	rec := repRecord{
		SetupS:  setup.Seconds(),
		RunS:    run.Seconds(),
		AllocMB: allocMB(alloc0),
		Ops:     w.ops * uint64(len(profs)*len(w.systems)),
	}
	rec.Cells = check(cells)
	rec.Model = modelMetrics(cells)
	return rec
}

// simCell runs one system's cell through sim.RunMix or sim.RunSingle.
func (w *spec) simCell(profs []workload.Profile, cfg sim.Config) cellResult {
	c := cellResult{System: string(cfg.System)}
	if w.mix != "" {
		c.Mix, c.Err = protect(func() *sim.MultiResult {
			r := sim.RunMix(w.mix, profs, cfg)
			return &r
		})
	} else {
		c.Single, c.Err = protect(func() *sim.Result {
			r := sim.RunSingle(profs[0], cfg)
			return &r
		})
	}
	return c
}

// sweepRep runs experiments.RunAll once. Each experiment is a cell: it
// fails when RunAll reports it failed, and every cell carries the
// digest of the whole rendered output, so a sweep whose output changes
// between repetitions fails all its cells. A non-nil progress sink is
// attached to the run.
func sweepRep(seed uint64, p *cellLog) repRecord {
	var out bytes.Buffer
	opt := experiments.Options{Out: &out, Quick: true, Seed: seed, SeedSet: true, Jobs: sweepJobs()}
	if p != nil {
		opt.Progress = p
	}
	alloc0 := totalAlloc()
	t0 := time.Now()
	_, err := protect(func() struct{} {
		_ = experiments.RunAll(opt) // failures are read off the rendered "!!" lines below
		return struct{}{}
	})
	rec := repRecord{RunS: time.Since(t0).Seconds(), AllocMB: allocMB(alloc0)}
	text := out.String()
	sum := digest(text)
	for _, e := range experiments.List() {
		c := cellOutcome{Name: e.Name, Digest: sum}
		switch {
		case err != nil:
			c.Err = err.Error()
		case strings.Contains(text, fmt.Sprintf("\n!! %s failed:", e.Name)):
			c.Err = "experiment failed"
		}
		rec.Cells = append(rec.Cells, c)
	}
	return rec
}
