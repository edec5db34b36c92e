package sim

import (
	"reflect"
	"testing"

	"compresso/internal/faults"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

// TestWarmupResetsCPUCore pins the warmup-reset bugfix: resetAll used
// to skip the CPU core, so a warmed run reported whole-run cycles and
// instructions next to post-warmup memory counters, skewing every
// IPC-derived figure. A run discarding half the trace must report
// fewer cycles and roughly half the instructions of a full-trace run.
func TestWarmupResetsCPUCore(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	full := quickCfg(Compresso)
	full.WarmupFrac = 0
	half := quickCfg(Compresso)
	half.WarmupFrac = 0.5

	resFull := RunSingle(prof, full)
	resHalf := RunSingle(prof, half)

	if resHalf.Cycles >= resFull.Cycles {
		t.Fatalf("half-warmup cycles %d not below full-run cycles %d: CPU stats survived the warmup reset",
			resHalf.Cycles, resFull.Cycles)
	}
	ratio := float64(resHalf.Instrs) / float64(resFull.Instrs)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("half-warmup instrs %d / full instrs %d = %.3f, want ~0.5",
			resHalf.Instrs, resFull.Instrs, ratio)
	}
	// The headline IPC must be computed from the post-warmup window.
	if want := float64(resHalf.Instrs) / float64(resHalf.Cycles); resHalf.IPC != want {
		t.Fatalf("IPC %v inconsistent with Instrs/Cycles %v", resHalf.IPC, want)
	}
}

// TestWarmupResetsCPUCoreMix is the RunMix variant: every core's
// cycle/instruction counters must cover only the post-warmup window.
func TestWarmupResetsCPUCoreMix(t *testing.T) {
	profs := Mixes()[1].Profiles() // milc, astar, gamess, tonto
	cfg := quickCfg(Uncompressed)
	cfg.Ops = 5_000
	cfg.WarmupFrac = 0
	full := RunMix("mix2", profs, cfg)
	cfgW := cfg
	cfgW.WarmupFrac = 0.5
	half := RunMix("mix2", profs, cfgW)
	for i := range full.Cores {
		if half.Cores[i].Instrs >= full.Cores[i].Instrs {
			t.Fatalf("core %d: half-warmup instrs %d not below full-run %d",
				i, half.Cores[i].Instrs, full.Cores[i].Instrs)
		}
	}
}

// TestFinalAuditRefreshesDramStats pins the post-audit stat-refresh
// bugfix: the final repairing audit issues real DRAM traffic, and
// Result.Dram must include it. Two runs differing only in whether the
// final audit fires are bit-identical through the demand phase, so the
// audited run's DRAM counters must come out strictly higher.
func TestFinalAuditRefreshesDramStats(t *testing.T) {
	prof, err := workload.ByName("cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	base := quickCfg(Compresso)
	base.Ops = 20_000
	base.Inject = faults.Config{Seed: 7}
	base.Inject.Rate[faults.MetaBitFlip] = 1e-3
	base.Inject.Rate[faults.ChunkDrop] = 1e-3

	aud := base
	aud.AuditEvery = aud.Ops + 1 // periodic ticks never fire; only Final runs

	resBase := RunSingle(prof, base)
	resAud := RunSingle(prof, aud)

	if resAud.Audit.Runs != 1 {
		t.Fatalf("audit runs %d, want exactly the final audit", resAud.Audit.Runs)
	}
	if resAud.Mem.RepairAccesses == 0 {
		t.Fatal("final audit repaired nothing; raise the injection rates")
	}
	if resAud.Mem.DemandAccesses() != resBase.Mem.DemandAccesses() {
		t.Fatalf("demand phases diverged: %d vs %d demand accesses",
			resAud.Mem.DemandAccesses(), resBase.Mem.DemandAccesses())
	}
	if resAud.Dram.Accesses() <= resBase.Dram.Accesses() {
		t.Fatalf("audited run's DRAM accesses %d not above baseline %d: the final audit's traffic is missing from Result.Dram",
			resAud.Dram.Accesses(), resBase.Dram.Accesses())
	}
}

// TestTraceEventsMatchCounters cross-checks the tentpole's two outputs
// against each other: with an unbounded buffer and no warmup reset, the
// per-kind event counts in the trace must equal the controller's
// overflow/repack/placement counters.
func TestTraceEventsMatchCounters(t *testing.T) {
	prof, err := workload.ByName("cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(Compresso)
	cfg.Ops = 60_000
	cfg.FootprintScale = 8 // enough churn for every event kind but repack
	cfg.WarmupFrac = 0
	cfg.TraceEvents = 1 << 20
	res := RunSingle(prof, cfg)

	if res.Trace.Dropped != 0 {
		t.Fatalf("trace dropped %d events with a %d-entry buffer", res.Trace.Dropped, cfg.TraceEvents)
	}
	byKind := map[obs.EventKind]uint64{}
	var lastCycle uint64
	for _, e := range res.Trace.Events {
		byKind[e.Kind]++
		if e.Cycle < lastCycle {
			t.Fatalf("event cycles went backwards: %v after %d", e, lastCycle)
		}
		lastCycle = e.Cycle
	}
	want := map[obs.EventKind]uint64{
		obs.EvLineOverflow:  res.Mem.LineOverflows,
		obs.EvLineUnderflow: res.Mem.LineUnderflows,
		obs.EvPageOverflow:  res.Mem.PageOverflows,
		obs.EvIRPlacement:   res.Mem.IRPlacements,
		obs.EvIRExpansion:   res.Mem.IRExpansions,
		obs.EvRepack:        res.Mem.Repacks,
		obs.EvRepackAbort:   res.Mem.RepackAborts,
		obs.EvPrediction:    res.Mem.Predictions,
	}
	for kind, n := range want {
		if byKind[kind] != n {
			t.Errorf("%v events: trace %d, counter %d", kind, byKind[kind], n)
		}
	}
	if res.Trace.Total == 0 {
		t.Fatal("no events traced on a churn-heavy benchmark")
	}
}

// TestTraceRingBoundAndDeterminism pins the ring-buffer contract: the
// buffer retains the newest N events, drop accounting is exact, runs
// are reproducible, and a zero capacity disables tracing entirely.
func TestTraceRingBoundAndDeterminism(t *testing.T) {
	prof, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(Compresso)
	cfg.Ops = 60_000
	cfg.FootprintScale = 8
	cfg.TraceEvents = 64
	a := RunSingle(prof, cfg)
	b := RunSingle(prof, cfg)

	if a.Trace.Capacity != 64 {
		t.Fatalf("capacity %d", a.Trace.Capacity)
	}
	if len(a.Trace.Events) > 64 {
		t.Fatalf("%d events retained", len(a.Trace.Events))
	}
	if a.Trace.Total != uint64(len(a.Trace.Events))+a.Trace.Dropped {
		t.Fatalf("drop accounting broken: total %d, kept %d, dropped %d",
			a.Trace.Total, len(a.Trace.Events), a.Trace.Dropped)
	}
	if a.Trace.Dropped == 0 {
		t.Fatalf("expected the %d-entry ring to overflow (total %d)", 64, a.Trace.Total)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("identical runs produced different traces")
	}

	cfg.TraceEvents = 0
	off := RunSingle(prof, cfg)
	if off.Trace.Total != 0 || len(off.Trace.Events) != 0 {
		t.Fatalf("tracing off still recorded: %+v", off.Trace)
	}
}

// TestResultRegistry checks the Result → metrics-registry bridge: the
// canonical names resolve to the raw counter values.
func TestResultRegistry(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res := RunSingle(prof, quickCfg(Compresso))
	reg := res.Registry()
	if got := reg.Counter("memctl.demand_reads").Value(); got != res.Mem.DemandReads {
		t.Fatalf("memctl.demand_reads = %d, want %d", got, res.Mem.DemandReads)
	}
	if got := reg.Counter("dram.reads").Value(); got != res.Dram.Reads {
		t.Fatalf("dram.reads = %d, want %d", got, res.Dram.Reads)
	}
	if got := reg.Counter("cpu.instrs").Value(); got != res.Instrs {
		t.Fatalf("cpu.instrs = %d, want %d", got, res.Instrs)
	}
	if reg.Gauge("run.ratio").Value() != res.Ratio {
		t.Fatal("run.ratio gauge wrong")
	}

	profs := Mixes()[1].Profiles()
	mcfg := quickCfg(Compresso)
	mcfg.Ops = 5_000
	mix := RunMix("mix2", profs, mcfg)
	mreg := mix.Registry()
	if got := mreg.Counter("core2.cpu.instrs").Value(); got != mix.Cores[2].Instrs {
		t.Fatalf("core2.cpu.instrs = %d, want %d", got, mix.Cores[2].Instrs)
	}
	if got := mreg.Counter("memctl.demand_writes").Value(); got != mix.Mem.DemandWrites {
		t.Fatalf("memctl.demand_writes = %d, want %d", got, mix.Mem.DemandWrites)
	}
}
