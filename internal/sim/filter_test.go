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

// runFiltered runs RunSingle's machine on the cache-filter logs of
// tables and reports whether its hierarchy replayed one: a replaying
// hierarchy never touches L1, a live one always does. A fresh table
// makes the run record, so it is live.
func runFiltered(prof workload.Profile, cfg Config, tables *filterTables) (Result, bool) {
	m := newMachine([]workload.Profile{prof}, cfg)
	m.filters = tables
	r := m.runSolo()
	return r, m.hiers[0].L1.Stats().Accesses() == 0
}

// runLive runs RunSingle's machine on a fresh table, so it records,
// and fails t unless its hierarchy ran live.
func runLive(t *testing.T, prof workload.Profile, cfg Config) Result {
	t.Helper()
	r, replayed := runFiltered(prof, cfg, &filterTables{})
	if replayed {
		t.Fatal("a run on a fresh filter table replayed")
	}
	return r
}

// logs counts table's published logs and its held recording claims.
func logs[L any](table *filterTable[L]) (published, recording int) {
	table.mu.Lock()
	defer table.mu.Unlock()
	for _, s := range table.slots {
		if s.log != nil {
			published++
		}
		if s.recording {
			recording++
		}
	}
	return published, recording
}

// slot reports whether key has a slot in table.
func slot[L any](table *filterTable[L], key filterKey) bool {
	table.mu.Lock()
	defer table.mu.Unlock()
	return table.slots[key] != nil
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
// every backend: a live run, the recording run, a replay of that
// backend's own log with and without assets, and a replay of another
// backend's log report the same, with warmup, sampling, attribution,
// tracing and auditing on.
func TestFilterReplayIsLive(t *testing.T) {
	prof, base := filterCfg(Uncompressed)
	shared := &filterTables{}
	if _, replayed := runFiltered(prof, base, shared); replayed {
		t.Fatal("the first run on a fresh table replayed")
	}
	for _, sys := range AllSystems() {
		t.Run(string(sys), func(t *testing.T) {
			t.Parallel()
			prof, cfg := filterCfg(sys)
			live := runLive(t, prof, cfg)
			if live.L3.Writebacks == 0 || len(live.Series.Windows) == 0 || live.Attribution.Accesses == 0 {
				t.Fatalf("observers or writebacks idle: L3 %+v, %d windows, %d attributed",
					live.L3, len(live.Series.Windows), live.Attribution.Accesses)
			}
			assets := PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
			own := &filterTables{}
			for _, run := range []struct {
				name   string
				assets *MixAssets
				tables *filterTables
				replay bool
			}{
				{"recording", assets, own, false},
				{"own replay", assets, own, true},
				{"asset-free replay", nil, own, true},
				{"shared replay", assets, shared, true},
			} {
				c := cfg
				c.Assets = run.assets
				got, replayed := runFiltered(prof, c, run.tables)
				if replayed != run.replay {
					t.Fatalf("%s run: replayed %v, want %v", run.name, replayed, run.replay)
				}
				requireSameRun(t, run.name, got, live)
			}
		})
	}
}

// TestAssetFreeRunReplays runs one asset-free RunSingle machine twice
// on the process's own table: the first run of a stream no other run
// has recorded records live, and the second replays it and reports the
// same.
func TestAssetFreeRunReplays(t *testing.T) {
	prof, cfg := filterCfg(Compresso)
	cfg.Seed = 0xa55e7f9ee
	l3 := scaledL3Bytes(2<<20, cfg.FootprintScale)
	for slot(&processFilters.one, oneCoreKey(workload.Scale(prof, cfg.FootprintScale), cfg.Seed, cfg.Ops, l3)) {
		cfg.Seed++ // the test already ran in this process (-count)
	}
	first, replayed := runFiltered(prof, cfg, &processFilters)
	if replayed {
		t.Fatal("the first asset-free run of a stream replayed")
	}
	second, replayed := runFiltered(prof, cfg, &processFilters)
	if !replayed {
		t.Fatal("the second asset-free run of a stream ran live")
	}
	requireSameRun(t, "asset-free replay", second, first)
}

// TestFilterKeyCoversStreamIdentity: each input that fixes a log's
// content (the scaled profile, the seed, Ops, and the one-core L3 or
// the core's base page) must change its key.
func TestFilterKeyCoversStreamIdentity(t *testing.T) {
	prof, cfg := filterCfg(Compresso)
	prof = workload.Scale(prof, cfg.FootprintScale)
	l3 := scaledL3Bytes(2<<20, cfg.FootprintScale)
	other := prof
	other.WriteFrac /= 2
	one := oneCoreKey(prof, cfg.Seed, cfg.Ops, l3)
	for name, k := range map[string]filterKey{
		"profile": oneCoreKey(other, cfg.Seed, cfg.Ops, l3),
		"seed":    oneCoreKey(prof, cfg.Seed+1, cfg.Ops, l3),
		"ops":     oneCoreKey(prof, cfg.Seed, cfg.Ops+1, l3),
		"L3":      oneCoreKey(prof, cfg.Seed, cfg.Ops, l3*2),
	} {
		if k == one {
			t.Errorf("one-core key ignores the %s", name)
		}
	}
	private := privateKey(prof, cfg.Seed, cfg.Ops, 64)
	for name, k := range map[string]filterKey{
		"profile":   privateKey(other, cfg.Seed, cfg.Ops, 64),
		"seed":      privateKey(prof, cfg.Seed+1, cfg.Ops, 64),
		"ops":       privateKey(prof, cfg.Seed, cfg.Ops+1, 64),
		"base page": privateKey(prof, cfg.Seed, cfg.Ops, 128),
	} {
		if k == private {
			t.Errorf("private key ignores the %s", name)
		}
	}
}

// TestFilterCanceledRecordingPublishesNothing cancels a recording run
// partway: the partial log must not be published, and the next run of
// the stream records afresh.
func TestFilterCanceledRecordingPublishesNothing(t *testing.T) {
	prof, cfg := filterCfg(Compresso)
	cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
	tables := &filterTables{}
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
		runFiltered(prof, c, tables)
	}()
	if published, recording := logs(&tables.one); published != 0 || recording != 0 {
		t.Fatalf("canceled recording left %d logs, %d claims", published, recording)
	}
	got, replayed := runFiltered(prof, cfg, tables)
	if replayed {
		t.Fatal("the run after a canceled recording replayed")
	}
	if published, _ := logs(&tables.one); published != 1 {
		t.Fatal("the run after a canceled recording published nothing")
	}
	cfg.Assets = nil
	requireSameRun(t, "re-recording", got, runLive(t, prof, cfg))
}

// TestFilterConcurrentRuns runs the paper's four systems at once on one
// stream and one table, twice over (so recording and replaying runs
// overlap), and requires each result to match its live run. Under the
// race detector (make race) this also checks the claim is race-free.
func TestFilterConcurrentRuns(t *testing.T) {
	prof, base := filterCfg(Uncompressed)
	assets := PrepareAssets([]workload.Profile{prof}, base, compress.BPC{}, 1)
	tables := &filterTables{}
	systems := append(Systems(), Systems()...)
	got := make([]Result, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cfg := filterCfg(sys)
			if i%2 == 0 {
				cfg.Assets = assets
			}
			got[i], _ = runFiltered(prof, cfg, tables)
		}()
	}
	wg.Wait()
	for i, sys := range systems[:len(Systems())] {
		_, cfg := filterCfg(sys)
		want := runLive(t, prof, cfg)
		requireSameRun(t, string(sys), got[i], want)
		requireSameRun(t, string(sys)+" (second)", got[i+len(Systems())], want)
	}
	if published, recording := logs(&tables.one); published != 1 || recording != 0 {
		t.Fatalf("after the runs: %d logs published, %d claims held; want 1 and 0", published, recording)
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
// op count, so a run for another op count is refused before it claims,
// records or replays any log.
func TestFilterOpsMismatchPanics(t *testing.T) {
	prof, cfg := filterCfg(LCP)
	cfg.Seed = 0x0b5b15
	cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
	cfg.Ops /= 2
	for i := 0; i < 2; i++ {
		requireAssetsPanic(t, func() { RunSingle(prof, cfg) })
	}
	key := oneCoreKey(workload.Scale(prof, cfg.FootprintScale), cfg.Seed, cfg.Ops, scaledL3Bytes(2<<20, cfg.FootprintScale))
	if slot(&processFilters.one, key) {
		t.Fatal("a run on assets for another op count claimed its log")
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

// runMixFiltered runs RunMix's machine on the cache-filter logs of
// tables and reports whether its cores replayed private logs: a
// replaying hierarchy never touches L1, a live one always does. Cores
// of one run must agree.
func runMixFiltered(t *testing.T, profs []workload.Profile, cfg Config, tables *filterTables) (MultiResult, bool) {
	t.Helper()
	m := newMachine(profs, cfg)
	m.filters = tables
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

// runMixLive runs RunMix's machine on a fresh table, so every core
// records, and fails t unless the cores ran live.
func runMixLive(t *testing.T, profs []workload.Profile, cfg Config) MultiResult {
	t.Helper()
	r, replayed := runMixFiltered(t, profs, cfg, &filterTables{})
	if replayed {
		t.Fatal("a mix on a fresh filter table replayed")
	}
	return r
}

// TestFilterMultiCoreReplayIsLive pins the multi-core cache filter as
// exact on every backend, at scale 2 and at scale 4 (which a mix halves
// for its L3 and metadata cache): a live run, the recording run, a
// replay of that backend's own private logs with and without assets,
// and a replay of another backend's report the same, with warmup,
// sampling, attribution, tracing and auditing on.
func TestFilterMultiCoreReplayIsLive(t *testing.T) {
	for _, scale := range []int{2, 4} {
		profs, base := mixCfg(Uncompressed, scale)
		shared := &filterTables{}
		if _, replayed := runMixFiltered(t, profs, base, shared); replayed {
			t.Fatalf("scale %d: the first run on a fresh table replayed", scale)
		}
		for _, sys := range AllSystems() {
			t.Run(fmt.Sprintf("%s/scale%d", sys, scale), func(t *testing.T) {
				t.Parallel()
				profs, cfg := mixCfg(sys, scale)
				live := runMixLive(t, profs, cfg)
				if live.Mem.DemandWrites == 0 || len(live.Series.Windows) == 0 || live.Attribution.Accesses == 0 {
					t.Fatalf("observers or writebacks idle: %d writes, %d windows, %d attributed",
						live.Mem.DemandWrites, len(live.Series.Windows), live.Attribution.Accesses)
				}
				assets := PrepareAssets(profs, cfg, compress.BPC{}, 1)
				own := &filterTables{}
				for _, run := range []struct {
					name   string
					assets *MixAssets
					tables *filterTables
					replay bool
				}{
					{"recording", assets, own, false},
					{"own replay", assets, own, true},
					{"asset-free replay", nil, own, true},
					{"shared replay", assets, shared, true},
				} {
					c := cfg
					c.Assets = run.assets
					got, replayed := runMixFiltered(t, profs, c, run.tables)
					if replayed != run.replay {
						t.Fatalf("%s run: replayed %v, want %v", run.name, replayed, run.replay)
					}
					requireSameRun(t, run.name, got, live)
				}
			})
		}
	}
}

// TestFilterPrivateLogKeysBasePage is the regression for a private log
// keyed without its core's base page: two mixes that place one profile
// under one core seed at different OSPA base pages must not share its
// private log, since the base moves every line the core touches.
func TestFilterPrivateLogKeysBasePage(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 4)
	first, err := workload.ByName("povray")
	if err != nil {
		t.Fatal(err)
	}
	moved := []workload.Profile{first, profs[1]}
	if workload.Scale(first, 4).FootprintPages == workload.Scale(profs[0], 4).FootprintPages {
		t.Fatal("both first cores have one footprint: core 1's base page does not move")
	}
	tables := &filterTables{}
	runMixFiltered(t, profs, cfg, tables)
	got, replayed := runMixFiltered(t, moved, cfg, tables)
	if replayed {
		t.Fatal("a core at another base page replayed the private log recorded at the first")
	}
	requireSameRun(t, "moved core", got, runMixLive(t, moved, cfg))
}

// TestFilterMultiCoreCanceledRecordingPublishesNothing cancels a
// recording mix partway: no core's partial log may be published, and
// the next run of the mix records afresh.
func TestFilterMultiCoreCanceledRecordingPublishesNothing(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 4)
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	tables := &filterTables{}
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
		runMixFiltered(t, profs, c, tables)
	}()
	if published, recording := logs(&tables.private); published != 0 || recording != 0 {
		t.Fatalf("canceled recording left %d logs, %d claims", published, recording)
	}
	got, replayed := runMixFiltered(t, profs, cfg, tables)
	if replayed {
		t.Fatal("the run after a canceled recording replayed")
	}
	if published, _ := logs(&tables.private); published != len(profs) {
		t.Fatalf("the run after a canceled recording published %d of %d logs", published, len(profs))
	}
	cfg.Assets = nil
	requireSameRun(t, "re-recording", got, runMixLive(t, profs, cfg))
}

// TestFilterMultiCoreConcurrentRuns runs the paper's four systems at
// once on one mix and one table, twice over (so recording, replaying
// and live cores overlap), and requires each result to match its live
// run. Under the race detector (make race) this also checks the
// per-core claims are race-free.
func TestFilterMultiCoreConcurrentRuns(t *testing.T) {
	profs, base := mixCfg(Uncompressed, 4)
	assets := PrepareAssets(profs, base, compress.BPC{}, 1)
	tables := &filterTables{}
	systems := append(Systems(), Systems()...)
	got := make([]MultiResult, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cfg := mixCfg(sys, 4)
			if i%2 == 0 {
				cfg.Assets = assets
			}
			m := newMachine(profs, cfg)
			m.filters = tables
			got[i] = m.runMix("pair")
		}()
	}
	wg.Wait()
	for i, sys := range systems[:len(Systems())] {
		_, cfg := mixCfg(sys, 4)
		want := runMixLive(t, profs, cfg)
		requireSameRun(t, string(sys), got[i], want)
		requireSameRun(t, string(sys)+" (second)", got[i+len(Systems())], want)
	}
	if published, recording := logs(&tables.private); published != len(profs) || recording != 0 {
		t.Fatalf("after the runs: %d logs published, %d claims held; want %d and 0", published, recording, len(profs))
	}
}

// TestFilterMultiCoreOpsMismatchPanics: a mix's assets prepared for
// another op count are refused like the one-core ones, before any core
// claims, records or replays a log.
func TestFilterMultiCoreOpsMismatchPanics(t *testing.T) {
	profs, cfg := mixCfg(LCP, 4)
	cfg.Seed = 0x0b5b16
	cfg.Assets = PrepareAssets(profs, cfg, compress.BPC{}, 1)
	cfg.Ops /= 2
	for i := 0; i < 2; i++ {
		requireAssetsPanic(t, func() { RunMix("pair", profs, cfg) })
	}
	if key := privateKey(workload.Scale(profs[0], cfg.FootprintScale), cfg.Seed, cfg.Ops, 0); slot(&processFilters.private, key) {
		t.Fatal("a run on assets for another op count claimed core 0's log")
	}
}

// TestFilterOneAndMultiCoreLogsNeverCross runs one-core and two-core
// machines alternately on one table: each core count records and
// replays its own kind of log only, and every run matches its live
// run.
func TestFilterOneAndMultiCoreLogsNeverCross(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 2)
	tables := &filterTables{}
	wantSolo, wantMix := runLive(t, profs[0], cfg), runMixLive(t, profs, cfg)

	solo, replayed := runFiltered(profs[0], cfg, tables)
	if replayed {
		t.Fatal("the first one-core run replayed")
	}
	requireSameRun(t, "one-core recording", solo, wantSolo)
	if one, _ := logs(&tables.one); one != 1 {
		t.Fatalf("one-core recording published %d one-core logs", one)
	}
	if private, _ := logs(&tables.private); private != 0 {
		t.Fatalf("one-core recording published %d private logs", private)
	}
	for i, replay := range []bool{false, true} {
		mix, replayed := runMixFiltered(t, profs, cfg, tables)
		if replayed != replay {
			t.Fatalf("mix run %d: replayed %v, want %v", i, replayed, replay)
		}
		requireSameRun(t, fmt.Sprintf("mix run %d", i), mix, wantMix)
		solo, replayed := runFiltered(profs[0], cfg, tables)
		if !replayed {
			t.Fatalf("one-core run after mix run %d ran live", i)
		}
		requireSameRun(t, fmt.Sprintf("one-core replay %d", i), solo, wantSolo)
	}
	if one, _ := logs(&tables.one); one != 1 {
		t.Fatalf("mix runs left %d one-core logs, want 1", one)
	}
}
