package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

// filterCfg is a short single-core run with every observer on, on a
// write-heavy benchmark whose L3 writes dirty lines back to memory.
func filterCfg(sys System) (workload.Profile, Config) {
	prof, err := workload.ByName("GemsFDTD")
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(sys)
	cfg.Ops = 12_000
	cfg.FootprintScale = 16
	cfg.SampleEvery = 1_000
	cfg.Attribution = true
	cfg.TraceEvents = 256
	cfg.AuditEvery = 2_000
	return prof, cfg
}

// runFiltered runs RunSingle's machine and reports whether its
// hierarchy replayed a filter log: a replaying hierarchy never touches
// L1, a live one always does.
func runFiltered(prof workload.Profile, cfg Config) (Result, bool) {
	m := newMachine([]workload.Profile{prof}, cfg)
	r := m.runSolo()
	return r, m.hiers[0].L1.Stats().Accesses() == 0
}

// requireSameRun compares everything a run reports: the Result or
// MultiResult JSON, the metrics registry and the parts the JSON leaves
// out.
func requireSameRun[R Result | MultiResult](t *testing.T, what string, got, want R) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Errorf("%s: Result JSON differs:\n got %s\nwant %s", what, gj, wj)
	}
	parts := func(r R) []any {
		switch r := any(r).(type) {
		case Result:
			return []any{r.Registry().Snapshot(), r.Series, r.Attribution, r.Trace}
		case MultiResult:
			return []any{r.Registry().Snapshot(), r.Series, r.Attribution, r.Trace}
		}
		panic("unreachable")
	}
	gp, wp := parts(got), parts(want)
	for i, name := range []string{"Registry", "Series", "Attribution", "Trace"} {
		if !reflect.DeepEqual(gp[i], wp[i]) {
			t.Errorf("%s: %s differs", what, name)
		}
	}
}

// TestFilterReplayIsLive pins the single-core cache filter as exact on
// every backend: the recording run, a replay of that backend's own log,
// a replay of another backend's log and an asset-free run report the
// same, with warmup, sampling, attribution, tracing and auditing on.
func TestFilterReplayIsLive(t *testing.T) {
	prof, base := filterCfg(Uncompressed)
	shared := PrepareAssets([]workload.Profile{prof}, base, compress.BPC{}, 1)
	base.Assets = shared
	if _, replayed := runFiltered(prof, base); replayed {
		t.Fatal("the first run on fresh assets replayed")
	}
	for _, sys := range AllSystems() {
		t.Run(string(sys), func(t *testing.T) {
			t.Parallel()
			prof, cfg := filterCfg(sys)
			live := RunSingle(prof, cfg)
			if live.L3.Writebacks == 0 || len(live.Series.Windows) == 0 || live.Attribution.Accesses == 0 {
				t.Fatalf("observers or writebacks idle: L3 %+v, %d windows, %d attributed",
					live.L3, len(live.Series.Windows), live.Attribution.Accesses)
			}
			cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
			for _, run := range []struct {
				name   string
				assets *MixAssets
				replay bool
			}{
				{"recording", cfg.Assets, false},
				{"own replay", cfg.Assets, true},
				{"shared replay", shared, true},
			} {
				c := cfg
				c.Assets = run.assets
				got, replayed := runFiltered(prof, c)
				if replayed != run.replay {
					t.Fatalf("%s run: replayed %v, want %v", run.name, replayed, run.replay)
				}
				requireSameRun(t, run.name, got, live)
			}
		})
	}
}

// TestFilterCanceledRecordingPublishesNothing cancels a recording run
// partway: the partial log must not be published, and the next run on
// the assets records afresh.
func TestFilterCanceledRecordingPublishesNothing(t *testing.T) {
	prof, cfg := filterCfg(Compresso)
	cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cfg
	c.Cancel = ctx
	c.OnSample = func(uint64, obs.Snapshot) { cancel() } // cancel after the first window
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run ended with %v, want a cancellation", err)
			}
		}()
		RunSingle(prof, c)
	}()
	if f := &cfg.Assets.filter; f.log != nil || f.recording {
		t.Fatalf("canceled recording left log %v, recording %v", f.log != nil, f.recording)
	}
	got, replayed := runFiltered(prof, cfg)
	if replayed {
		t.Fatal("the run after a canceled recording replayed")
	}
	if cfg.Assets.filter.log == nil {
		t.Fatal("the run after a canceled recording published nothing")
	}
	cfg.Assets = nil
	requireSameRun(t, "re-recording", got, RunSingle(prof, cfg))
}

// TestFilterConcurrentRuns runs the paper's four systems at once on one
// MixAssets, twice over (so recording and replaying runs overlap), and
// requires each result to match its asset-free run. Under the race
// detector (make race) this also checks the claim is race-free.
func TestFilterConcurrentRuns(t *testing.T) {
	prof, base := filterCfg(Uncompressed)
	assets := PrepareAssets([]workload.Profile{prof}, base, compress.BPC{}, 1)
	systems := append(Systems(), Systems()...)
	got := make([]Result, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cfg := filterCfg(sys)
			cfg.Assets = assets
			got[i] = RunSingle(prof, cfg)
		}()
	}
	wg.Wait()
	for i, sys := range systems[:len(Systems())] {
		_, cfg := filterCfg(sys)
		want := RunSingle(prof, cfg)
		requireSameRun(t, string(sys), got[i], want)
		requireSameRun(t, string(sys)+" (second)", got[i+len(Systems())], want)
	}
	if assets.filter.log == nil {
		t.Fatal("no run published a filter log")
	}
}

// requireAssetsPanic runs fn and fails unless it panics with the
// run-shape mismatch of MixAssets.check for core 0 on GemsFDTD.
func requireAssetsPanic(t *testing.T, fn func()) {
	t.Helper()
	const want = "sim: Assets prepared for different run shape (core 0, profile GemsFDTD)"
	defer func() {
		t.Helper()
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestFilterOpsMismatchPanics: the recording holds exactly the assets'
// op count, so a run for another op count is refused before it records
// or replays anything.
func TestFilterOpsMismatchPanics(t *testing.T) {
	prof, cfg := filterCfg(LCP)
	cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
	cfg.Ops /= 2
	for i := 0; i < 2; i++ {
		requireAssetsPanic(t, func() { RunSingle(prof, cfg) })
	}
	if cfg.Assets.filter.log != nil || cfg.Assets.filter.recording {
		t.Fatal("a run recorded on assets for another op count")
	}
}

// mixCfg is filterCfg as a two-core mix at the given footprint scale,
// long enough for both cores' L2s to install dirty lines into the
// shared L3 and for L3 to write them back to memory.
func mixCfg(sys System, scale int) ([]workload.Profile, Config) {
	prof, cfg := filterCfg(sys)
	cfg.Ops = 30_000
	cfg.FootprintScale = scale
	other, err := workload.ByName("mcf")
	if err != nil {
		panic(err)
	}
	return []workload.Profile{prof, other}, cfg
}

// runMixFiltered runs RunMix's machine and reports whether its cores
// replayed private logs: a replaying hierarchy never touches L1, a
// live one always does. Cores of one run must agree.
func runMixFiltered(t *testing.T, profs []workload.Profile, cfg Config) (MultiResult, bool) {
	t.Helper()
	m := newMachine(profs, cfg)
	r := m.runMix("pair")
	replayed := 0
	for _, h := range m.hiers {
		if h.L1.Stats().Accesses() == 0 {
			replayed++
		}
	}
	if replayed != 0 && replayed != len(m.hiers) {
		t.Fatalf("%d of %d cores replayed", replayed, len(m.hiers))
	}
	return r, replayed > 0
}

// privateLogs reports whether every core's private log of a is
// published, and whether any is claimed for recording.
func privateLogs(a *MixAssets) (published, recording bool) {
	published = true
	for i := range a.private {
		published = published && a.private[i].log != nil
		recording = recording || a.private[i].recording
	}
	return published, recording
}

// TestFilterMultiCoreReplayIsLive pins the multi-core cache filter as
// exact on every backend, at scale 2 and at scale 4 (which a mix halves
// for its L3 and metadata cache): the recording run, a replay of that
// backend's own private logs, a replay of another backend's and an
// asset-free run report the same, with warmup, sampling, attribution,
// tracing and auditing on.
func TestFilterMultiCoreReplayIsLive(t *testing.T) {
	for _, scale := range []int{2, 4} {
		profs, base := mixCfg(Uncompressed, scale)
		shared := PrepareAssets(profs, base, compress.BPC{}, 1)
		base.Assets = shared
		if _, replayed := runMixFiltered(t, profs, base); replayed {
			t.Fatalf("scale %d: the first run on fresh assets replayed", scale)
		}
		for _, sys := range AllSystems() {
			t.Run(fmt.Sprintf("%s/scale%d", sys, scale), func(t *testing.T) {
				t.Parallel()
				profs, cfg := mixCfg(sys, scale)
				live := RunMix("pair", profs, cfg)
				if live.Mem.DemandWrites == 0 || len(live.Series.Windows) == 0 || live.Attribution.Accesses == 0 {
					t.Fatalf("observers or writebacks idle: %d writes, %d windows, %d attributed",
						live.Mem.DemandWrites, len(live.Series.Windows), live.Attribution.Accesses)
				}
				own := PrepareAssets(profs, cfg, compress.BPC{}, 1)
				for _, run := range []struct {
					name   string
					assets *MixAssets
					replay bool
				}{
					{"recording", own, false},
					{"own replay", own, true},
					{"shared replay", shared, true},
				} {
					c := cfg
					c.Assets = run.assets
					got, replayed := runMixFiltered(t, profs, c)
					if replayed != run.replay {
						t.Fatalf("%s run: replayed %v, want %v", run.name, replayed, run.replay)
					}
					requireSameRun(t, run.name, got, live)
				}
			})
		}
	}
}

// TestFilterMultiCoreCanceledRecordingPublishesNothing cancels a
// recording mix partway: no core's partial log may be published, and
// the next run on the assets records afresh.
func TestFilterMultiCoreCanceledRecordingPublishesNothing(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 4)
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := cfg
	c.Cancel = ctx
	c.OnSample = func(uint64, obs.Snapshot) { cancel() } // cancel after the first window
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run ended with %v, want a cancellation", err)
			}
		}()
		RunMix("pair", profs, c)
	}()
	for i := range cfg.Assets.private {
		if f := &cfg.Assets.private[i]; f.log != nil || f.recording {
			t.Fatalf("core %d: canceled recording left log %v, recording %v", i, f.log != nil, f.recording)
		}
	}
	got, replayed := runMixFiltered(t, profs, cfg)
	if replayed {
		t.Fatal("the run after a canceled recording replayed")
	}
	if published, _ := privateLogs(cfg.Assets); !published {
		t.Fatal("the run after a canceled recording published nothing")
	}
	cfg.Assets = nil
	requireSameRun(t, "re-recording", got, RunMix("pair", profs, cfg))
}

// TestFilterMultiCoreConcurrentRuns runs the paper's four systems at
// once on one mix's assets, twice over (so recording, replaying and
// live cores overlap), and requires each result to match its
// asset-free run. Under the race detector (make race) this also checks
// the per-core claims are race-free.
func TestFilterMultiCoreConcurrentRuns(t *testing.T) {
	profs, base := mixCfg(Uncompressed, 4)
	assets := PrepareAssets(profs, base, compress.BPC{}, 1)
	systems := append(Systems(), Systems()...)
	got := make([]MultiResult, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cfg := mixCfg(sys, 4)
			cfg.Assets = assets
			got[i] = RunMix("pair", profs, cfg)
		}()
	}
	wg.Wait()
	for i, sys := range systems[:len(Systems())] {
		_, cfg := mixCfg(sys, 4)
		want := RunMix("pair", profs, cfg)
		requireSameRun(t, string(sys), got[i], want)
		requireSameRun(t, string(sys)+" (second)", got[i+len(Systems())], want)
	}
	if published, recording := privateLogs(assets); !published || recording {
		t.Fatalf("after the runs: every log published %v, a claim held %v", published, recording)
	}
}

// TestFilterMultiCoreOpsMismatchPanics: a mix's assets prepared for
// another op count are refused like the one-core ones, before any core
// records or replays.
func TestFilterMultiCoreOpsMismatchPanics(t *testing.T) {
	profs, cfg := mixCfg(LCP, 4)
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	cfg.Ops /= 2
	for i := 0; i < 2; i++ {
		requireAssetsPanic(t, func() { RunMix("pair", profs, cfg) })
	}
	if _, recording := privateLogs(cfg.Assets); recording {
		t.Fatal("a run kept a recording claim on assets for another op count")
	}
	for i := range cfg.Assets.private {
		if cfg.Assets.private[i].log != nil {
			t.Fatalf("core %d: a run recorded on assets for another op count", i)
		}
	}
}

// TestFilterOneAndMultiCoreLogsNeverCross runs one-core and two-core
// machines alternately on one mix's assets: each core count records
// and replays its own kind of log only, and every run matches its
// asset-free run.
func TestFilterOneAndMultiCoreLogsNeverCross(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 2)
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	free := cfg
	free.Assets = nil
	wantSolo, wantMix := RunSingle(profs[0], free), RunMix("pair", profs, free)

	solo, replayed := runFiltered(profs[0], cfg)
	if replayed {
		t.Fatal("the first one-core run replayed")
	}
	requireSameRun(t, "one-core recording", solo, wantSolo)
	oneCore := cfg.Assets.filter.log
	if published, _ := privateLogs(cfg.Assets); oneCore == nil || published {
		t.Fatalf("one-core recording: one-core log %v, private logs %v", oneCore != nil, published)
	}
	for i, replay := range []bool{false, true} {
		mix, replayed := runMixFiltered(t, profs, cfg)
		if replayed != replay {
			t.Fatalf("mix run %d: replayed %v, want %v", i, replayed, replay)
		}
		requireSameRun(t, fmt.Sprintf("mix run %d", i), mix, wantMix)
		solo, replayed := runFiltered(profs[0], cfg)
		if !replayed {
			t.Fatalf("one-core run after mix run %d ran live", i)
		}
		requireSameRun(t, fmt.Sprintf("one-core replay %d", i), solo, wantSolo)
	}
	if cfg.Assets.filter.log != oneCore {
		t.Fatal("a mix run replaced the one-core log")
	}
}
