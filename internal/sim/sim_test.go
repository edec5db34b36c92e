package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/workload"
)

func quickCfg(sys System) Config {
	cfg := DefaultConfig(sys)
	cfg.Ops = 30_000
	cfg.FootprintScale = 16
	return cfg
}

func TestRunSingleAllSystems(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	for _, sys := range Systems() {
		res := RunSingle(prof, quickCfg(sys))
		if res.Cycles == 0 || res.Instrs == 0 {
			t.Fatalf("%v: empty result %+v", sys, res)
		}
		if res.System != sys.String() {
			t.Fatalf("system label %q", res.System)
		}
		if sys == Uncompressed && res.Ratio != 1 {
			t.Fatalf("uncompressed ratio %v", res.Ratio)
		}
		if sys == Compresso && res.Ratio <= 1.2 {
			t.Fatalf("compresso ratio %v too low for gcc", res.Ratio)
		}
		t.Logf("%-12v IPC %.3f ratio %.2f extra %.2f", sys, res.IPC, res.Ratio, res.Mem.RelativeExtra())
	}
}

func TestDeterministicRuns(t *testing.T) {
	prof, _ := workload.ByName("astar")
	a := RunSingle(prof, quickCfg(Compresso))
	b := RunSingle(prof, quickCfg(Compresso))
	if a.Cycles != b.Cycles || a.Mem != b.Mem {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestCompressedSystemsPayExtraAccesses(t *testing.T) {
	prof, _ := workload.ByName("milc")
	cfgU := quickCfg(Uncompressed)
	cfgC := quickCfg(Compresso)
	u := RunSingle(prof, cfgU)
	c := RunSingle(prof, cfgC)
	if u.Mem.ExtraAccesses() != 0 {
		t.Fatalf("uncompressed has extra accesses: %+v", u.Mem)
	}
	if c.Mem.ExtraAccesses() == 0 {
		t.Fatal("compresso reported zero extra accesses on a write-heavy benchmark")
	}
}

func TestCompressoBeatsLCPOnExtraAccesses(t *testing.T) {
	// The paper's central claim (Fig. 6): Compresso's optimizations cut
	// relative extra accesses well below the LCP-style baseline's.
	// Checked here on one churn-heavy benchmark; the full sweep is
	// experiment fig4/fig6.
	prof, _ := workload.ByName("cactusADM")
	lcp := RunSingle(prof, quickCfg(LCP))
	comp := RunSingle(prof, quickCfg(Compresso))
	if comp.Mem.RelativeExtra() >= lcp.Mem.RelativeExtra() {
		t.Fatalf("compresso extra %.3f >= lcp extra %.3f",
			comp.Mem.RelativeExtra(), lcp.Mem.RelativeExtra())
	}
}

func TestWarmupReset(t *testing.T) {
	prof, _ := workload.ByName("gamess")
	cfg := quickCfg(Compresso)
	cfg.WarmupFrac = 0.5
	res := RunSingle(prof, cfg)
	// Post-warmup demand ops must be roughly half the trace (cache
	// events only; exact equality is not expected).
	if res.Mem.DemandAccesses() == 0 {
		t.Fatal("no post-warmup accesses")
	}
	cfg0 := quickCfg(Compresso)
	cfg0.WarmupFrac = 0
	res0 := RunSingle(prof, cfg0)
	if res.Mem.DemandAccesses() >= res0.Mem.DemandAccesses() {
		t.Fatal("warmup reset did not reduce counted accesses")
	}
}

func TestMixesResolve(t *testing.T) {
	ms := Mixes()
	if len(ms) != 10 {
		t.Fatalf("%d mixes, want 10", len(ms))
	}
	for _, m := range ms {
		for i, prof := range m.Profiles() {
			if prof.Name != m.Benches[i] {
				t.Fatalf("%s: core %d resolves %q to %q", m.Name, i, m.Benches[i], prof.Name)
			}
		}
	}
	// Spot-check Tab. IV contents.
	if Mixes()[0].Benches != [4]string{"mcf", "GemsFDTD", "libquantum", "soplex"} {
		t.Fatalf("mix1 = %v", Mixes()[0].Benches)
	}
	if Mixes()[9].Benches != [4]string{"Forestfire", "Pagerank", "Graph500", "cactusADM"} {
		t.Fatalf("mix10 = %v", Mixes()[9].Benches)
	}
}

func TestRunMix(t *testing.T) {
	profs := Mixes()[1].Profiles() // milc, astar, gamess, tonto
	cfg := quickCfg(Compresso)
	cfg.Ops = 15_000
	res := RunMix("mix2", profs, cfg)
	if len(res.Cores) != 4 {
		t.Fatalf("%d cores", len(res.Cores))
	}
	for i, cr := range res.Cores {
		if cr.Cycles == 0 || cr.IPC <= 0 {
			t.Fatalf("core %d empty: %+v", i, cr)
		}
	}
	if res.Ratio <= 1 {
		t.Fatalf("mix ratio %v", res.Ratio)
	}
	base := RunMix("mix2", profs, func() Config { c := quickCfg(Uncompressed); c.Ops = 15_000; return c }())
	ws, err := res.WeightedSpeedup(base)
	if err != nil {
		t.Fatal(err)
	}
	if ws < 0.3 || ws > 2.5 {
		t.Fatalf("weighted speedup %v implausible", ws)
	}
	t.Logf("mix2 compresso weighted speedup %.3f, ratio %.2f", ws, res.Ratio)
}

func TestTabIIIParameters(t *testing.T) {
	// Pin the Tab. III configuration so refactors cannot silently
	// change the evaluated system.
	cfg := DefaultConfig(Compresso)
	if cfg.CPU.IssueWidth != 4 || cfg.CPU.ROB != 192 {
		t.Fatalf("core config %+v", cfg.CPU)
	}
	if cfg.DRAM.CL != 18 || cfg.DRAM.RCD != 18 || cfg.DRAM.RP != 18 || cfg.DRAM.BL != 8 {
		t.Fatalf("dram config %+v", cfg.DRAM)
	}
	if cfg.DRAM.CoreClocksPerMemClock != 2.25 {
		t.Fatalf("clock ratio %v", cfg.DRAM.CoreClocksPerMemClock)
	}
}

func TestSystemString(t *testing.T) {
	if Uncompressed.String() != "uncompressed" || Compresso.String() != "compresso" ||
		LCP.String() != "lcp" || LCPAlign.String() != "lcp-align" {
		t.Fatal("system names wrong")
	}
	if System("no-such-backend").String() != "no-such-backend" {
		t.Fatal("system name is its backend name")
	}
}

func TestAblationHooks(t *testing.T) {
	prof, _ := workload.ByName("bwaves")
	cfg := quickCfg(Compresso)
	cfg.CompressoMod = func(c *core.Config) { c.DynamicRepacking = false; c.PredictOverflows = false }
	res := RunSingle(prof, cfg)
	if res.Mem.Repacks != 0 || res.Mem.Predictions != 0 {
		t.Fatalf("ablation hook ignored: %+v", res.Mem)
	}
}

func TestExtendedSystemsRun(t *testing.T) {
	// The related-work baselines run through the same harness.
	prof, _ := workload.ByName("xalancbmk")
	for _, sys := range []System{DMC, MXT} {
		cfg := quickCfg(sys)
		cfg.Ops = 10_000
		res := RunSingle(prof, cfg)
		if res.Cycles == 0 || res.Ratio <= 1 {
			t.Fatalf("%v: %+v", sys, res)
		}
		if res.System != sys.String() {
			t.Fatalf("label %q", res.System)
		}
	}
	if len(ExtendedSystems()) != 6 {
		t.Fatalf("extended systems: %v", ExtendedSystems())
	}
}

func TestMultiCoreContention(t *testing.T) {
	// Four copies of a memory-bound benchmark sharing one memory system
	// must each run slower than the benchmark alone.
	prof, _ := workload.ByName("milc")
	single := RunSingle(prof, func() Config { c := quickCfg(Uncompressed); c.Ops = 10_000; return c }())
	mix := RunMix("contention", []workload.Profile{prof, prof, prof, prof},
		func() Config { c := quickCfg(Uncompressed); c.Ops = 10_000; return c }())
	for i, cr := range mix.Cores {
		if cr.IPC >= single.IPC {
			t.Fatalf("core %d IPC %.3f not below solo IPC %.3f", i, cr.IPC, single.IPC)
		}
	}
}

// TestPanicMessages pins the wording of the package's deliberate
// panics: these fire on programming errors (not data corruption, which
// the audit machinery reports instead), and tooling greps for them.
func TestPanicMessages(t *testing.T) {
	cases := []struct {
		name string
		want string
		fn   func()
	}{
		{"routed line out of range", "sim: line 5 outside every core's range", func() {
			rs := &routedSource{basePages: []uint64{1}, images: []*workload.Image{nil}}
			var buf [64]byte
			rs.ReadLine(5, buf[:])
		}},
		{"empty mix", "sim: empty mix", func() {
			RunMix("empty", nil, quickCfg(Compresso))
		}},
		// Assets replay a recorded op log, so a run whose profile
		// differs in any field (here only the store fraction) must be
		// refused rather than fed the other profile's stream.
		{"assets for another profile", "sim: Assets prepared for different run shape (core 0, profile GemsFDTD)", func() {
			prof, cfg := filterCfg(Compresso)
			cfg.Assets = PrepareAssets([]workload.Profile{prof}, cfg, compress.BPC{}, 1)
			prof.WriteFrac /= 2
			RunSingle(prof, cfg)
		}},
		{"mismatched mix results", "sim: mismatched mix results", func() {
			a := MultiResult{Cores: make([]Result, 2)}
			b := MultiResult{Cores: make([]Result, 1)}
			_, _ = a.WeightedSpeedup(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic, want %q", tc.want)
				}
				if msg, ok := r.(string); !ok || msg != tc.want {
					t.Fatalf("panic %v, want %q", r, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

// TestRunSingleIsOneCoreMix pins RunSingle as the one-core case of
// RunMix on every registered backend: a one-core mix must provision the
// single-core machine (no halved metadata-cache and L3 scale, which
// only several cores sharing them get) and reproduce the single-core
// run exactly, with and without a warmup. WarmupFrac 0 covers the old
// mix-runner bug that reset the statistics one op into the run; scale
// 16 covers the shared-cache halving.
func TestRunSingleIsOneCoreMix(t *testing.T) {
	cases := []struct {
		bench string
		scale int
	}{
		{"povray", 2}, // small footprint
		{"mcf", 16},   // large footprint
	}
	for _, sys := range memctl.BackendNames() {
		for _, tc := range cases {
			prof, err := workload.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, warm := range []float64{0, 0.1} {
				t.Run(fmt.Sprintf("%s/%s-x%d/warm%v", sys, tc.bench, tc.scale, warm), func(t *testing.T) {
					t.Parallel() // mxt's LZ-priced install dominates; overlap it
					cfg := DefaultConfig(System(sys))
					cfg.Ops = 4_000
					cfg.WarmupFrac = warm
					cfg.FootprintScale = tc.scale
					single := RunSingle(prof, cfg)
					mix := RunMix("solo", []workload.Profile{prof}, cfg)
					if len(mix.Cores) != 1 {
						t.Fatalf("%d cores", len(mix.Cores))
					}
					for _, f := range []struct {
						name      string
						mix, solo any
					}{
						{"CPU", mix.Cores[0].CPU, single.CPU},
						{"Mem", mix.Mem, single.Mem},
						{"Dram", mix.Dram, single.Dram},
						{"MDCache", mix.MDCache, single.MDCache},
						{"Ratio", mix.Ratio, single.Ratio},
						{"PageSizes", mix.PageSizes, single.PageSizes},
					} {
						if !reflect.DeepEqual(f.mix, f.solo) {
							t.Errorf("%s differs:\nmix    %+v\nsingle %+v", f.name, f.mix, f.solo)
						}
					}
				})
			}
		}
	}
}

// TestRunMixMultiCoreZeroWarmup covers the 4-core variant of the same
// bug: with no warmup the controller statistics must cover the whole
// run, so they cannot count fewer accesses than a run that discards a
// warmup prefix (mirrors TestWarmupReset for RunSingle).
func TestRunMixMultiCoreZeroWarmup(t *testing.T) {
	profs := Mixes()[1].Profiles() // milc, astar, gamess, tonto
	cfg := quickCfg(Uncompressed)
	cfg.Ops = 5_000
	cfg.WarmupFrac = 0
	full := RunMix("mix2", profs, cfg)
	cfgW := cfg
	cfgW.WarmupFrac = 0.5
	half := RunMix("mix2", profs, cfgW)
	if full.Mem.DemandAccesses() <= half.Mem.DemandAccesses() {
		t.Fatalf("zero-warmup demand accesses %d not above half-warmup %d: stats were reset mid-run",
			full.Mem.DemandAccesses(), half.Mem.DemandAccesses())
	}
}

// TestWeightedSpeedupDegenerateBaseline pins the zero-IPC guard: a
// baseline core that retired nothing must surface as an error, not as
// an Inf/NaN that poisons downstream geomeans.
func TestWeightedSpeedupDegenerateBaseline(t *testing.T) {
	m := MultiResult{Cores: []Result{{Bench: "a", IPC: 1.5}, {Bench: "b", IPC: 0.8}}}
	base := MultiResult{MixName: "mixX", Cores: []Result{{Bench: "a", IPC: 1.2}, {Bench: "b", IPC: 0}}}
	ws, err := m.WeightedSpeedup(base)
	if err == nil {
		t.Fatalf("degenerate baseline accepted, got speedup %v", ws)
	}
	for _, frag := range []string{"mixX", "core 1", "b", "degenerate IPC"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}

	// The healthy path still works.
	healthy := MultiResult{Cores: []Result{{IPC: 1.0}, {IPC: 1.0}}}
	ws, err = m.WeightedSpeedup(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.5 + 0.8) / 2; ws != want {
		t.Fatalf("speedup %v, want %v", ws, want)
	}
}

// TestOverlapModel pins the opt-in overlapped-controller timing model:
// with Overlap off every overlap counter is zero and the serial model is
// untouched; with Overlap on only timing changes — access accounting and
// compression ratio are bit-identical, the run can only get faster, and
// hidden + exposed cycles conserve DecompressLatency per timed read.
func TestOverlapModel(t *testing.T) {
	prof, _ := workload.ByName("milc")
	cfgOff := quickCfg(Compresso)
	cfgOn := quickCfg(Compresso)
	cfgOn.Overlap = true
	off := RunSingle(prof, cfgOff)
	on := RunSingle(prof, cfgOn)

	if off.Mem.OverlapReads != 0 || off.Mem.OverlapHiddenCycles != 0 || off.Mem.OverlapExposedCycles != 0 {
		t.Fatalf("overlap counters nonzero with Overlap off: %+v", off.Mem)
	}
	if on.Mem.OverlapReads == 0 || on.Mem.OverlapHiddenCycles == 0 {
		t.Fatalf("overlap model hid nothing on a memory-heavy benchmark: %+v", on.Mem)
	}
	// Timing-only: zero the overlap counters and the access accounting
	// must match the serial run exactly.
	scrubbed := on.Mem
	scrubbed.OverlapReads = 0
	scrubbed.OverlapHiddenCycles = 0
	scrubbed.OverlapExposedCycles = 0
	if scrubbed != off.Mem {
		t.Fatalf("overlap changed access accounting:\n on  %+v\n off %+v", scrubbed, off.Mem)
	}
	if on.Ratio != off.Ratio {
		t.Fatalf("overlap changed compression ratio: %v vs %v", on.Ratio, off.Ratio)
	}
	if on.Cycles > off.Cycles {
		t.Fatalf("overlap slowed the run: %d cycles vs %d serial", on.Cycles, off.Cycles)
	}
	// Conservation: every overlap-timed read splits exactly
	// DecompressLatency into hidden + exposed.
	decomp := core.DefaultConfig(1, memctl.PageSize).DecompressLatency
	if got, want := on.Mem.OverlapHiddenCycles+on.Mem.OverlapExposedCycles, on.Mem.OverlapReads*decomp; got != want {
		t.Fatalf("hidden %d + exposed %d = %d, want OverlapReads %d * DecompressLatency %d = %d",
			on.Mem.OverlapHiddenCycles, on.Mem.OverlapExposedCycles, got, on.Mem.OverlapReads, decomp, want)
	}
}

// TestMachineGeometry pins geometryOf at one and four cores: the L3,
// the metadata-cache divisor the backends get, the channels, and the
// metadata cache's reach per footprint page against the paper's (the
// scale over the divisor metadata.ScaleCacheForFootprint applies). It
// pins the two gaps geometryOf documents (DESIGN.md §5): one core's L3
// is smaller than the 512 KB L2 above scale 4, where it almost never
// hits, and the metadata cache reaches two (one core) or four (four
// cores) times the paper's share of each footprint page.
func TestMachineGeometry(t *testing.T) {
	const l2Bytes = 512 << 10
	const kb = 1 << 10
	for _, c := range []struct {
		scale, cores int
		want         geometry
		reach        float64
	}{
		{1, 1, geometry{l3Bytes: 2048 * kb, mdScale: 1, channels: 1}, 1},
		{2, 1, geometry{l3Bytes: 1024 * kb, mdScale: 2, channels: 1}, 2},
		{3, 1, geometry{l3Bytes: 512 * kb, mdScale: 3, channels: 1}, 1.5},
		{4, 1, geometry{l3Bytes: 512 * kb, mdScale: 4, channels: 1}, 2},
		{8, 1, geometry{l3Bytes: 256 * kb, mdScale: 8, channels: 1}, 2},
		{16, 1, geometry{l3Bytes: 128 * kb, mdScale: 16, channels: 1}, 2},
		{32, 1, geometry{l3Bytes: 128 * kb, mdScale: 32, channels: 1}, 2},
		{1, 4, geometry{l3Bytes: 8192 * kb, mdScale: 1, channels: 2}, 1},
		{2, 4, geometry{l3Bytes: 4096 * kb, mdScale: 2, channels: 2}, 2},
		{3, 4, geometry{l3Bytes: 8192 * kb, mdScale: 1, channels: 2}, 3},
		{4, 4, geometry{l3Bytes: 4096 * kb, mdScale: 2, channels: 2}, 4},
		{8, 4, geometry{l3Bytes: 2048 * kb, mdScale: 4, channels: 2}, 4},
		{16, 4, geometry{l3Bytes: 1024 * kb, mdScale: 8, channels: 2}, 4},
		{32, 4, geometry{l3Bytes: 512 * kb, mdScale: 16, channels: 2}, 4},
	} {
		got := geometryOf(c.scale, c.cores)
		if got != c.want {
			t.Errorf("scale %d, %d cores: geometry %+v, want %+v", c.scale, c.cores, got, c.want)
		}
		if smaller := got.l3Bytes < l2Bytes; smaller != (c.cores == 1 && c.scale > 4) {
			t.Errorf("scale %d, %d cores: L3 %d B against the %d B L2; the gap should open above scale 4 on one core only",
				c.scale, c.cores, got.l3Bytes, l2Bytes)
		}
		md := metadata.DefaultCacheConfig()
		full := md.SizeBytes
		metadata.ScaleCacheForFootprint(&md, got.mdScale)
		if reach := float64(c.scale) * float64(md.SizeBytes) / float64(full); reach != c.reach {
			t.Errorf("scale %d, %d cores: metadata-cache reach %v times the paper's, want %v", c.scale, c.cores, reach, c.reach)
		}
	}
}
