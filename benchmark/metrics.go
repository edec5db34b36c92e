package main

import (
	"encoding/json"
	"fmt"
	"os"

	"compresso/internal/sim"
)

// metricSpec names a metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readSpec reads a benchmark definition such as BENCHMARK.json.
func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// endToEnd are the metrics an untraced run reports, measured with
// tracing off. Each is the median over the run's repetitions; every
// repetition runs in a fresh process. Times are scaled to the
// reference host speed (probe.go).
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower"},      // process start through the last run call
	{Name: "setup_s", Unit: "s", Better: "lower"},     // process start-up plus sim.PrepareAssets
	{Name: "run_s", Unit: "s", Better: "lower"},       // inside sim.RunMix/RunSingle or experiments.RunAll
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},   // bytes allocated by the repetition
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"}, // the repetition process's peak resident set
}

// perLayer lists the metrics a traced run reports. Those a workload
// does not exercise (a system it does not run, the sweep's grid metrics
// on a simulation workload) read 0.
func perLayer() []metricSpec {
	var m []metricSpec
	add := func(name, unit, better string) { m = append(m, metricSpec{Name: name, Unit: unit, Better: better}) }
	for _, c := range []string{"bpc", "bdi", "fpc", "cpack", "lz"} {
		add("compress.size_ns."+c, "ns", "lower")
	}
	add("compress.lz_block_ns", "ns", "lower")
	add("workload.materialize_ns_per_page", "ns/page", "lower")
	add("workload.size_all_ns_per_line", "ns/line", "lower")
	add("workload.record_ns_per_op", "ns/op", "lower")
	add("workload.next_ns", "ns", "lower")
	add("workload.size_line_ns", "ns", "lower")
	add("workload.size_line_calls", "count", "lower")
	add("workload.read_line_ns", "ns", "lower")
	add("workload.read_line_calls", "count", "lower")
	add("cpu.step_ns", "ns", "lower")
	add("cpu.step_ns_p50", "ns", "lower")
	add("cpu.step_ns_p99", "ns", "lower")
	add("cpu.self_ns", "ns", "lower")
	add("cache.access_ns", "ns", "lower")
	add("cache.accesses", "count", "lower")
	add("cache.replay_exact", "flag", "higher")
	for _, s := range sim.ExtendedSystems() {
		add("memctl.read_ns."+string(s), "ns", "lower")
		add("memctl.write_ns."+string(s), "ns", "lower")
		add("memctl.read_ns_p99."+string(s), "ns", "lower")
		add("memctl.self_ns."+string(s), "ns", "lower")
		add("memctl.install_ns_per_page."+string(s), "ns/page", "lower")
		add("memctl.calls."+string(s), "count", "lower")
	}
	add("dram.access_ns", "ns", "lower")
	add("dram.accesses", "count", "lower")
	add("dram.rows_exact", "flag", "higher")
	add("obs.overhead_frac", "ratio", "lower")
	add("experiments.cells", "count", "lower")
	add("experiments.cell_ms_p50", "ms", "lower")
	add("experiments.cell_ms_p99", "ms", "lower")
	add("experiments.cell_ms_max", "ms", "lower")
	add("parallel.busy_frac", "ratio", "higher")
	add("trace.overhead_frac", "ratio", "lower")
	add("ledger.residual_frac", "ratio", "lower")
	add("sim.simops_per_s", "ops/s", "higher")
	for _, s := range sim.ExtendedSystems() {
		add("model.ipc."+string(s), "instr/cycle", "higher")
		add("model.weighted_speedup."+string(s), "ratio", "higher")
		add("model.ratio."+string(s), "ratio", "higher")
		add("model.relative_extra."+string(s), "ratio", "lower")
		add("model.mdcache_hit_rate."+string(s), "ratio", "higher")
		add("model.dram_row_hit_rate."+string(s), "ratio", "higher")
	}
	add("model.l3_miss_rate", "ratio", "lower")
	add("model.attr.metadata_frac.compresso", "ratio", "lower")
	return m
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndSamples returns each end-to-end metric's per-repetition
// values over the untraced repetitions that ran to completion: times
// scaled to the reference host speed, and under "raw." as measured,
// with the probe ("probe_ms") they were scaled by.
func endToEndSamples(reps []repSample) map[string][]float64 {
	s := map[string][]float64{}
	add := func(name string, v float64) { s[name] = append(s[name], v) }
	for _, r := range reps {
		if r.rec.Kind != repPlain || r.failed {
			continue
		}
		setup := r.startup.Seconds() + r.rec.SetupS
		for name, v := range map[string]float64{"wall_s": setup + r.rec.RunS, "setup_s": setup, "run_s": r.rec.RunS} {
			add(name, v*r.scale())
			add("raw."+name, v)
		}
		add("probe_ms", r.probe.Seconds()*1e3)
		add("alloc_mb", r.rec.AllocMB)
		add("max_rss_mb", r.rec.PeakRSSMB)
	}
	return s
}

// layerValues returns the per-layer metrics of a traced run: medians
// over the traced repetitions, the simulated results of the first
// untraced one, and the overhead of tracing itself. Simulated ops per
// second and the tracing overhead use times scaled to the reference
// host speed; the layers' own times are as measured.
func layerValues(reps []repSample) map[string]float64 {
	samples := map[string][]float64{}
	var plainRun, tracedRun, simops []float64
	var model map[string]float64
	for _, r := range reps {
		if r.failed {
			continue
		}
		run := r.rec.RunS * r.scale()
		switch r.rec.Kind {
		case repPlain:
			plainRun = append(plainRun, run)
			if r.rec.Ops > 0 {
				simops = append(simops, float64(r.rec.Ops)/run)
			}
			if model == nil {
				model = r.rec.Model
			}
		case repTraced:
			tracedRun = append(tracedRun, run)
			for k, v := range r.rec.Layers {
				samples[k] = append(samples[k], v)
			}
		}
	}
	values := map[string]float64{}
	for k, v := range samples {
		values[k] = median(v)
	}
	for k, v := range model {
		values[k] = v
	}
	if p := median(plainRun); p > 0 && len(tracedRun) > 0 {
		values["trace.overhead_frac"] = median(tracedRun)/p - 1
	}
	values["sim.simops_per_s"] = median(simops)
	out := map[string]float64{}
	for _, m := range perLayer() {
		out[m.Name] = values[m.Name]
	}
	return out
}
