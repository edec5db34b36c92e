package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"compresso/internal/obs"
	"compresso/internal/workload"
)

// TestRunSingleSamplingDeterminismNeutral is the DESIGN.md §9
// invariant: the serialized result must be byte-identical with
// sampling on or off (Series is excluded from JSON; nothing else may
// change).
func TestRunSingleSamplingDeterminismNeutral(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	plain := RunSingle(prof, quickCfg(Compresso))

	cfg := quickCfg(Compresso)
	cfg.SampleEvery = 1000
	cfg.SampleWindows = 8
	calls := 0
	cfg.OnSample = func(cycle uint64, snap obs.Snapshot) { calls++ }
	sampled := RunSingle(prof, cfg)

	if calls == 0 {
		t.Fatal("OnSample never fired")
	}
	if len(sampled.Series.Windows) == 0 || len(sampled.Series.Windows[0].Delta.Counters) == 0 {
		t.Fatal("first window carries no deltas")
	}

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("sampling changed the serialized result:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSingleSeriesSumsToFinalCounters checks window accounting:
// with warmup off, the per-window counter deltas must sum to the final
// cumulative counters.
func TestRunSingleSeriesSumsToFinalCounters(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(Compresso)
	cfg.WarmupFrac = 0
	cfg.SampleEvery = 2500
	res := RunSingle(prof, cfg)

	ser := res.Series
	if ser.Every != 2500 || ser.Capacity != DefaultSampleWindows {
		t.Fatalf("series config %+v", ser)
	}
	// 30k ops / 2500 = 12 full windows + the final drain flush.
	if ser.Total != 13 || ser.Dropped != 0 {
		t.Fatalf("series accounting total=%d dropped=%d", ser.Total, ser.Dropped)
	}
	final := res.Registry().Snapshot()
	for _, name := range []string{"memctl.demand_reads", "cpu.instrs", "dram.reads"} {
		var sum uint64
		for _, w := range ser.Windows {
			sum += w.Delta.Counters[name]
		}
		if sum != final.Counters[name] {
			t.Errorf("%s: window deltas sum to %d, final counter %d", name, sum, final.Counters[name])
		}
	}
	// Window cycle bounds are monotone.
	for i := 1; i < len(ser.Windows); i++ {
		if ser.Windows[i].StartCycle != ser.Windows[i-1].EndCycle {
			t.Fatalf("window %d starts at %d, previous ended at %d",
				i, ser.Windows[i].StartCycle, ser.Windows[i-1].EndCycle)
		}
	}
}

// TestRunMixSampling mirrors the single-core checks for RunMix.
func TestRunMixSampling(t *testing.T) {
	profs := Mixes()[0].Profiles()
	cfg := quickCfg(Compresso)
	cfg.Ops = 5_000
	plain := RunMix("mix1", profs, cfg)

	cfgS := cfg
	cfgS.SampleEvery = 4000
	calls := 0
	cfgS.OnSample = func(cycle uint64, snap obs.Snapshot) { calls++ }
	sampled := RunMix("mix1", profs, cfgS)

	if calls == 0 || len(sampled.Series.Windows) == 0 {
		t.Fatalf("mix sampling inert: %d calls, %d windows", calls, len(sampled.Series.Windows))
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(sampled)
	if !bytes.Equal(a, b) {
		t.Fatal("sampling changed the serialized mix result")
	}
}

// TestPageSizeHistogram checks the satellite wiring: compressed
// controllers surface their page-size distribution in the result and
// registry, with usable percentiles.
func TestPageSizeHistogram(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res := RunSingle(prof, quickCfg(Compresso))
	if res.PageSizes.Total == 0 {
		t.Fatal("compresso run has no page-size histogram")
	}
	snap := res.Registry().Snapshot()
	h, ok := snap.Hists["memctl.page_size_chunks"]
	if !ok || h.Total != res.PageSizes.Total {
		t.Fatalf("registry histogram = %+v, want total %d", h, res.PageSizes.Total)
	}
	p50, ok := h.Percentile(50)
	if !ok || p50 < 0 || p50 > 8 {
		t.Fatalf("p50 = %d,%v", p50, ok)
	}

	// The uncompressed controller has no variable page sizes.
	unc := RunSingle(prof, quickCfg(Uncompressed))
	if unc.PageSizes.Total != 0 {
		t.Fatalf("uncompressed run reports page sizes: %+v", unc.PageSizes)
	}
	if _, ok := unc.Registry().Snapshot().Hists["memctl.page_size_chunks"]; ok {
		t.Fatal("uncompressed registry registered an empty page-size histogram")
	}
}
