package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

// lockstepCfgs is one pass's worth of configs on filterCfg's stream:
// every registered backend, then compresso under mods, the overlap
// model, fault injection and each observer switched on or off, so a
// pass mixes every kind of machine.
func lockstepCfgs() (workload.Profile, []Config) {
	prof, base := filterCfg(Uncompressed)
	base.SampleEvery, base.Attribution, base.TraceEvents, base.AuditEvery = 0, false, 0, 0
	var cfgs []Config
	for i, b := range memctl.Backends() {
		c := base
		c.System = System(b.Name)
		// Observers on every other backend.
		if i%2 == 0 {
			c.SampleEvery, c.Attribution, c.TraceEvents, c.AuditEvery = 1_000, true, 256, 2_000
		}
		cfgs = append(cfgs, c)
	}
	comp := base
	comp.System = Compresso
	eight := comp
	eight.CompressoMod = func(c *core.Config) { c.Bins = compress.EightBins }
	eight.TraceEvents = 64
	legacy := comp
	legacy.CompressoMod = func(c *core.Config) {
		c.Bins = compress.LegacyBins
		c.DynamicRepacking = false
		c.PredictOverflows = false
	}
	// A window closes exactly at the warmup boundary (12,000 ops, 10%):
	// a follower must sample its lead's counters from before the reset.
	legacy.SampleEvery = 600
	overlap := comp
	overlap.Overlap, overlap.Attribution, overlap.TopPages = true, true, 4
	injected := comp
	injected.Inject = faults.Config{Seed: 7}
	injected.Inject.Rate[faults.MetaBitFlip] = 1e-3
	injected.Inject.Rate[faults.ChunkDrop] = 1e-3
	injected.Inject.Rate[faults.MDCacheMiss] = 1e-3
	injected.AuditEvery = 1_500
	return prof, append(cfgs, eight, legacy, overlap, injected)
}

// runPass runs cfgs as one RunSingles pass on the cache-filter logs of
// tables.
func runPass(prof workload.Profile, cfgs []Config, tables *filterTables) []Result {
	p := newPass([]workload.Profile{prof}, cfgs)
	p.filters = tables
	return p.runSolos()
}

// requireSameArtifact fails t unless got and want are deep-equal and
// encode to byte-identical JSON artifacts of the -json run payload's
// shape (the result plus its registry snapshot).
func requireSameArtifact(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Result differs from its solo run", what)
	}
	encode := func(r Result) []byte {
		data := struct {
			Result  Result       `json:"result"`
			Metrics obs.Snapshot `json:"metrics"`
		}{r, r.Registry().Snapshot()}
		b, err := obs.Encode(obs.Artifact{Kind: "bench", Name: what, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Errorf("%s: JSON artifact differs from its solo run", what)
	}
}

// TestRunSinglesMatchesRunSingle runs every kind of machine in one
// lockstep pass and requires each Result to be exactly its solo
// RunSingle's: deep-equal, the same JSON artifact, and the same
// registry, series, attribution and trace. The pass's first machine
// records, replays or runs its caches live (another run holding the
// recording claim) while the others follow it, so each cache mode of
// the lead is covered.
func TestRunSinglesMatchesRunSingle(t *testing.T) {
	prof, cfgs := lockstepCfgs()
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runLive(t, prof, cfg)
	}
	recorded := &filterTables{}
	busy := &filterTables{}
	key := oneCoreKey(workload.Scale(prof, cfgs[0].FootprintScale), cfgs[0].Seed, cfgs[0].Ops, geometryOf(cfgs[0].FootprintScale, 1))
	if _, _, release := busy.one.Claim(key); release == nil {
		t.Fatal("a fresh table refused the claim")
	}
	for _, run := range []struct {
		name   string
		tables *filterTables
	}{
		{"recording lead", recorded},
		{"replaying lead", recorded},
		{"live lead", busy},
	} {
		got := runPass(prof, cfgs, run.tables)
		if len(got) != len(cfgs) {
			t.Fatalf("%s: %d results for %d configs", run.name, len(got), len(cfgs))
		}
		for i := range cfgs {
			what := fmt.Sprintf("%s, config %d (%s)", run.name, i, cfgs[i].System)
			requireSameArtifact(t, what, got[i], want[i])
			requireSameRun(t, what, got[i], want[i])
		}
	}
	if published, recording := logs(&recorded.one, []filterKey{key}); published != 1 || recording != 0 {
		t.Fatalf("after the passes: %d logs published, %d claims held; want 1 and 0", published, recording)
	}
	if got := RunSingles(prof, nil); got != nil {
		t.Fatalf("RunSingles without configs returned %d results", len(got))
	}
}

// TestRunSinglesRejectsMixedStreams: the configs of a pass share one op
// stream and one warmup boundary, so configs that differ in what fixes
// either are refused before anything runs, naming the field.
func TestRunSinglesRejectsMixedStreams(t *testing.T) {
	prof, base := filterCfg(Compresso)
	assets := PrepareAssets([]workload.Profile{prof}, base, compress.BPC{}, 1)
	for field, change := range map[string]func(*Config){
		"Ops":            func(c *Config) { c.Ops++ },
		"Seed":           func(c *Config) { c.Seed++ },
		"FootprintScale": func(c *Config) { c.FootprintScale *= 2 },
		"WarmupFrac":     func(c *Config) { c.WarmupFrac /= 2 },
		"Assets":         func(c *Config) { c.Assets = assets },
	} {
		t.Run(field, func(t *testing.T) {
			other := base
			other.System = LCP
			change(&other)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "differ in "+field+";") {
					t.Fatalf("panic %q, want one naming %s", msg, field)
				}
			}()
			RunSingles(prof, []Config{base, other})
		})
	}
}

// TestNewPassRejectsLockstepMix: a mix's cores interleave by their own
// clocks, which differ per system, so a pass of several mix machines
// cannot share one op order and is refused.
func TestNewPassRejectsLockstepMix(t *testing.T) {
	profs, cfg := mixCfg(Compresso, 2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "one-core machines only") {
			t.Fatalf("panic %q, want the one-core refusal", msg)
		}
	}()
	newPass(profs, []Config{cfg, cfg})
}

// FuzzRunSinglesMatchesSolo runs a random subset of the registered
// backends and compresso variants as one short pass and requires every
// Result to equal its solo run's. The solo runs go first on the pass's
// table (so its lead replays) or after it (so its lead records).
func FuzzRunSinglesMatchesSolo(f *testing.F) {
	f.Add(uint16(0xffff), uint8(0xff), uint16(1_500), uint8(0), true)
	f.Add(uint16(0x0001), uint8(0x00), uint16(900), uint8(1), false)
	f.Add(uint16(0x0000), uint8(0x15), uint16(2_000), uint8(2), true)
	f.Add(uint16(0x0a5a), uint8(0x2a), uint16(0), uint8(3), false)
	prof, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	backends := memctl.BackendNames()
	mods := []func(*Config){
		func(c *Config) { c.CompressoMod = func(cc *core.Config) { cc.Bins = compress.EightBins } },
		func(c *Config) { c.CompressoMod = func(cc *core.Config) { cc.DynamicRepacking = false } },
		func(c *Config) { c.Overlap = true },
		func(c *Config) { c.Attribution, c.TopPages = true, 3 },
		func(c *Config) { c.TraceEvents = 32 },
		// Windows close at half the warmup and at its boundary.
		func(c *Config) { c.SampleEvery = max(1, uint64(float64(c.Ops)*c.WarmupFrac)/2) },
		func(c *Config) { c.AuditEvery = 400 },
		func(c *Config) { c.Inject = faults.Config{Seed: 3}; c.Inject.Rate[faults.ChunkDrop] = 1e-2 },
	}
	f.Fuzz(func(t *testing.T, systems uint16, variants uint8, ops uint16, seed uint8, solosFirst bool) {
		base := DefaultConfig(Uncompressed)
		base.Ops = 200 + uint64(ops)%2_500
		base.FootprintScale = 32
		base.Seed = uint64(seed)
		var cfgs []Config
		for i, name := range backends {
			if systems>>i&1 != 0 {
				c := base
				c.System = System(name)
				cfgs = append(cfgs, c)
			}
		}
		for i, mod := range mods {
			if variants>>i&1 != 0 {
				c := base
				c.System = Compresso
				mod(&c)
				cfgs = append(cfgs, c)
			}
		}
		if len(cfgs) == 0 {
			return
		}
		tables := &filterTables{}
		solo := func() []Result {
			out := make([]Result, len(cfgs))
			for i, c := range cfgs {
				out[i] = runPass(prof, []Config{c}, tables)[0]
			}
			return out
		}
		var want, got []Result
		if solosFirst {
			want = solo()
			got = runPass(prof, cfgs, tables)
		} else {
			got = runPass(prof, cfgs, tables)
			want = solo()
		}
		for i := range cfgs {
			requireSameArtifact(t, fmt.Sprintf("config %d (%s)", i, cfgs[i].System), got[i], want[i])
		}
	})
}
