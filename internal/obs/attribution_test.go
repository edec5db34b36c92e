package obs

import (
	"encoding/json"
	"testing"
)

func TestAttributionNilIsFree(t *testing.T) {
	var a *Attribution
	a.Begin(0, 1, false)
	a.Exposed(CompDRAMQueue, 10)
	a.Hidden(CompRepack, 5)
	a.ExposedDRAM(1, 2)
	a.HiddenDRAM(3, 4)
	a.End(100)
	a.Reset()
	if a.Violations() != 0 {
		t.Fatal("nil ledger reported violations")
	}
	s := a.Snapshot()
	if len(s.Components) != int(NComponents) {
		t.Fatalf("nil snapshot has %d components, want %d", len(s.Components), NComponents)
	}
	if s.Accesses != 0 || s.HotPages == nil {
		t.Fatalf("nil snapshot not empty-shaped: %+v", s)
	}
}

func TestAttributionConservation(t *testing.T) {
	a := NewAttribution(4)
	a.Begin(100, 7, false)
	a.Exposed(CompMDCacheHit, 4)
	a.ExposedDRAM(10, 26)
	a.Exposed(CompDecompress, 9)
	a.Hidden(CompSplit, 31)
	a.End(149) // 4+10+26+9 == 49 exactly
	if v := a.Violations(); v != 0 {
		t.Fatalf("balanced access counted %d violations (%s)", v, a.firstViol)
	}

	a.Begin(200, 8, true)
	a.Exposed(CompOverflow, 10)
	a.End(205) // charged 5, components 10: violation
	if v := a.Violations(); v != 1 {
		t.Fatalf("unbalanced access counted %d violations, want 1", v)
	}
	s := a.Snapshot()
	if s.FirstViolation == "" {
		t.Fatal("violation detail missing")
	}
	if s.Accesses != 2 || s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("access counts wrong: %+v", s)
	}
	if s.ChargedCycles != 49+5 {
		t.Fatalf("charged cycles %d, want 54", s.ChargedCycles)
	}
	var exposed uint64
	for _, c := range s.Components {
		exposed += c.ExposedCycles
	}
	if exposed != 49+10 {
		t.Fatalf("exposed total %d, want 59", exposed)
	}
	if s.Components[CompDecompress].Charges != 1 || s.Components[CompDecompress].Latency.Total != 1 {
		t.Fatalf("decompress charge/hist not recorded: %+v", s.Components[CompDecompress])
	}
}

func TestAttributionPostedDemotesExposed(t *testing.T) {
	a := NewAttribution(0)
	a.Begin(10, 1, true)
	a.Posted()
	a.Exposed(CompMDCacheHit, 4)       // demoted to hidden
	a.ExposedDRAM(3, 30)               // demoted to hidden
	a.ExposedCritical(CompOverflow, 7) // stays on the critical path
	a.End(17)
	if v := a.Violations(); v != 0 {
		t.Fatalf("posted access violated conservation: %d (%s)", v, a.firstViol)
	}
	s := a.Snapshot()
	if s.Components[CompMDCacheHit].HiddenCycles != 4 || s.Components[CompMDCacheHit].ExposedCycles != 0 {
		t.Fatalf("posted demotion failed: %+v", s.Components[CompMDCacheHit])
	}
	if s.Components[CompDRAMService].HiddenCycles != 30 {
		t.Fatalf("ExposedDRAM not demoted: %+v", s.Components[CompDRAMService])
	}
	if s.Components[CompOverflow].ExposedCycles != 7 {
		t.Fatalf("ExposedCritical demoted: %+v", s.Components[CompOverflow])
	}
}

func TestAttributionHotPageProfile(t *testing.T) {
	a := NewAttribution(2)
	charge := func(page, overhead uint64) {
		a.Begin(0, page, false)
		a.Exposed(CompMDFetch, overhead)
		a.End(overhead)
	}
	charge(1, 10)
	charge(2, 20)
	charge(3, 50) // evicts page 1 (min weight 10), inherits its bound
	s := a.Snapshot()
	if len(s.HotPages) != 2 {
		t.Fatalf("profile holds %d pages, want 2", len(s.HotPages))
	}
	if s.HotPages[0].Page != 3 || s.HotPages[0].OverheadCycles != 60 || s.HotPages[0].ErrorBound != 10 {
		t.Fatalf("top page wrong: %+v", s.HotPages[0])
	}
	if s.HotPages[1].Page != 2 || s.HotPages[1].OverheadCycles != 20 {
		t.Fatalf("second page wrong: %+v", s.HotPages[1])
	}

	// DRAM queue/service cycles are not overhead: they never admit a
	// page into a full profile.
	a.Begin(0, 9, false)
	a.ExposedDRAM(100, 100)
	a.End(200)
	if got := a.Snapshot().HotPages; len(got) != 2 || got[0].Page != 3 {
		t.Fatalf("zero-overhead access perturbed the profile: %+v", got)
	}
}

func TestAttributionSeriesDecimates(t *testing.T) {
	a := NewAttribution(0)
	n := attrSeriesStride * attrSeriesCap * 2
	for i := 0; i < n; i++ {
		a.Begin(uint64(i), NoPage, false)
		a.Exposed(CompDRAMService, 1)
		a.End(uint64(i) + 1)
	}
	s := a.Snapshot()
	if len(s.Series) == 0 || len(s.Series) >= attrSeriesCap {
		t.Fatalf("series length %d out of bounds (cap %d)", len(s.Series), attrSeriesCap)
	}
	last := s.Series[len(s.Series)-1]
	if last.Exposed[CompDRAMService] == 0 {
		t.Fatal("series points lost the cumulative exposed cycles")
	}
	ev := s.ChromeCounters(3)
	if len(ev) != len(s.Series)+1 {
		t.Fatalf("counter export emitted %d events, want %d points + process name", len(ev), len(s.Series))
	}
	if ev[1].Phase != "C" || ev[1].Name != "attr.dram_service" {
		t.Fatalf("counter event malformed: %+v", ev[1])
	}
}

func TestAttributionMerge(t *testing.T) {
	mk := func(page uint64) AttributionSnapshot {
		a := NewAttribution(4)
		a.Begin(0, page, false)
		a.Exposed(CompMDFetch, 8)
		a.End(8)
		return a.Snapshot()
	}
	s := mk(1)
	s.Merge(mk(1), 4)
	if s.Accesses != 2 || s.ChargedCycles != 16 {
		t.Fatalf("merge totals wrong: %+v", s)
	}
	if len(s.HotPages) != 1 || s.HotPages[0].OverheadCycles != 16 {
		t.Fatalf("merge did not combine pages: %+v", s.HotPages)
	}
	if s.Components[CompMDFetch].Latency.Total != 2 {
		t.Fatalf("merge did not add histograms: %+v", s.Components[CompMDFetch].Latency)
	}
}

func TestAttributionResetAndMetrics(t *testing.T) {
	a := NewAttribution(2)
	a.Begin(0, 1, false)
	a.Exposed(CompMDCacheHit, 3)
	a.End(3)
	a.Reset()
	s := a.Snapshot()
	if s.Accesses != 0 || len(s.HotPages) != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
	a.Begin(0, 1, false)
	a.Exposed(CompMDCacheHit, 3)
	a.End(3)
	m := a.Snapshot().Metrics()
	if m.Counters["attr.accesses"] != 1 || m.Counters["attr.md_cache_hit.exposed_cycles"] != 3 {
		t.Fatalf("metrics mapping wrong: %+v", m.Counters)
	}
	if _, ok := m.Hists["attr.md_cache_hit.latency"]; !ok {
		t.Fatal("latency histogram missing from metrics")
	}
	// Metric names must satisfy the registry grammar the exposition
	// renderer assumes.
	for name := range m.Counters {
		checkName(name) // panics on an invalid name
	}
	for name := range m.Hists {
		checkName(name)
	}
}

func TestAttributionSnapshotJSONStable(t *testing.T) {
	a, b := EmptyAttributionSnapshot(), EmptyAttributionSnapshot()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("empty snapshots not byte-identical")
	}
}
