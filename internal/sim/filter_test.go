package sim

import (
	"context"
	"encoding/json"
	"errors"
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

// requireSameRun compares everything a run reports: the Result JSON,
// the metrics registry and the parts the JSON leaves out.
func requireSameRun(t *testing.T, what string, got, want Result) {
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
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Registry", got.Registry().Snapshot(), want.Registry().Snapshot()},
		{"Series", got.Series, want.Series},
		{"Attribution", got.Attribution, want.Attribution},
		{"Trace", got.Trace, want.Trace},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: %s differs", what, f.name)
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

// TestFilterOpsMismatchRunsLive: assets prepared for another op count
// neither record nor replay.
func TestFilterOpsMismatchRunsLive(t *testing.T) {
	prof, cfg := filterCfg(LCP)
	cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
	cfg.Ops /= 2
	for i := 0; i < 2; i++ {
		if _, replayed := runFiltered(prof, cfg); replayed {
			t.Fatalf("run %d replayed on assets for another op count", i)
		}
	}
	if cfg.Assets.filter.log != nil {
		t.Fatal("a run recorded on assets for another op count")
	}
}

// TestFilterMultiCoreRunsLive: a RunMix of several profiles keeps the
// live hierarchy even when its assets hold a log for core 0's stream.
// Scale 2 keeps the mix at the assets' footprint scale (larger scales
// are halved for several cores), so only the core count excludes it.
func TestFilterMultiCoreRunsLive(t *testing.T) {
	prof, cfg := filterCfg(Compresso)
	cfg.FootprintScale = 2
	other, err := workload.ByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	profs := []workload.Profile{prof, other}
	want := RunMix("pair", profs, cfg)
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	if _, replayed := runFiltered(prof, cfg); replayed || cfg.Assets.filter.log == nil {
		t.Fatal("a one-core run on fresh assets did not record")
	}
	for i := 0; i < 2; i++ {
		m := newMachine(profs, cfg)
		m.run(func() obs.Snapshot { return m.state().Registry().Snapshot() })
		for c, h := range m.hiers {
			if h.L1.Stats().Accesses() == 0 {
				t.Fatalf("run %d: core %d replayed in a multi-core machine", i, c)
			}
		}
		got := m.finish()
		got.MixName = "pair"
		if !reflect.DeepEqual(got.Registry().Snapshot(), want.Registry().Snapshot()) {
			t.Fatalf("run %d: multi-core run on filter-bearing assets differs from the asset-free run", i)
		}
	}
}
