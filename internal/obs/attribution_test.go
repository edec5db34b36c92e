package obs

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
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

// refPageProfile is the map-and-scan Space-Saving profile the
// open-addressed pageProfile replaced; the fuzzer holds the two to the
// same entries, in the same order.
type refPageProfile struct {
	cap     int
	idx     map[uint64]int
	entries []HotPage
}

func (p *refPageProfile) record(page, weight uint64) {
	if i, ok := p.idx[page]; ok {
		p.entries[i].OverheadCycles += weight
		p.entries[i].Accesses++
		return
	}
	if len(p.entries) < p.cap {
		p.idx[page] = len(p.entries)
		p.entries = append(p.entries, HotPage{Page: page, OverheadCycles: weight, Accesses: 1})
		return
	}
	if weight == 0 {
		return
	}
	min := 0
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].OverheadCycles < p.entries[min].OverheadCycles {
			min = i
		}
	}
	old := p.entries[min]
	delete(p.idx, old.Page)
	p.idx[page] = min
	p.entries[min] = HotPage{
		Page:           page,
		OverheadCycles: old.OverheadCycles + weight,
		Accesses:       1,
		ErrorBound:     old.OverheadCycles,
	}
}

// FuzzPageProfileMatchesReference feeds one (page, weight) stream to
// pageProfile and refPageProfile. The first byte picks the cap (1..64);
// each record then takes a page from a small set (collisions, repeats)
// or a wide 8-byte value (probe runs that wrap the table), and a
// weight that is zero about a fifth of the time and otherwise mostly
// one of four small values, so eviction ties are common.
func FuzzPageProfileMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add([]byte{0, 200, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 7, 9, 1})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%64) + 1
		p := newPageProfile(n)
		ref := &refPageProfile{cap: n, idx: map[uint64]int{}}
		for data = data[1:]; len(data) >= 2; {
			sel, wb := data[0], data[1]
			data = data[2:]
			var page uint64
			if sel < 128 || len(data) < 8 {
				page = uint64(sel % 24)
			} else {
				page = binary.LittleEndian.Uint64(data)
				data = data[8:]
			}
			var weight uint64
			switch {
			case wb < 51:
			case wb < 230:
				weight = uint64(wb%4) + 1
			default:
				weight = uint64(wb) << (wb % 40)
			}
			p.record(page, weight)
			ref.record(page, weight)
			if got := p.entries; !reflect.DeepEqual(got, ref.entries) {
				t.Fatalf("after (%d, %d): entries\n%+v\nwant\n%+v", page, weight, got, ref.entries)
			}
			for i, e := range p.entries {
				if p.weights[i] != e.OverheadCycles {
					t.Fatalf("after (%d, %d): weights[%d] = %d, entry holds %d", page, weight, i, p.weights[i], e.OverheadCycles)
				}
			}
		}
		want := append([]HotPage(nil), ref.entries...)
		sortHotPages(want)
		if got := p.top(); !reflect.DeepEqual(got, want) {
			t.Fatalf("top %+v, want %+v", got, want)
		}
	})
}

// TestPageProfileTieEvictsEarliestIndex pins the Space-Saving rule's
// two edges: among equal minimum weights the earliest entry goes, and
// a zero-weight miss over a full table evicts nothing.
func TestPageProfileTieEvictsEarliestIndex(t *testing.T) {
	p := newPageProfile(3)
	for _, page := range []uint64{10, 20, 30} {
		p.record(page, 5)
	}
	check := func(want ...HotPage) {
		t.Helper()
		if got := p.entries; !reflect.DeepEqual(got, want) {
			t.Fatalf("entries %+v, want %+v", got, want)
		}
	}
	p.record(40, 1) // all tie at 5: index 0 (page 10) goes
	p.record(50, 0) // zero weight: no eviction
	check(HotPage{Page: 40, OverheadCycles: 6, Accesses: 1, ErrorBound: 5},
		HotPage{Page: 20, OverheadCycles: 5, Accesses: 1},
		HotPage{Page: 30, OverheadCycles: 5, Accesses: 1})
	p.record(60, 2) // 6, 5, 5: index 1 (page 20) goes
	check(HotPage{Page: 40, OverheadCycles: 6, Accesses: 1, ErrorBound: 5},
		HotPage{Page: 60, OverheadCycles: 7, Accesses: 1, ErrorBound: 5},
		HotPage{Page: 30, OverheadCycles: 5, Accesses: 1})
}

// TestAttributionLatencyClassesMatchHistogram holds the ledger's
// fixed latency-class arrays to an obs.Histogram fed the same classes:
// the per-component snapshots, the Metrics() rendering and a merged
// snapshot must all match, class 64 (a charge of 2^63 cycles or more)
// included, and again after Reset.
func TestAttributionLatencyClassesMatchHistogram(t *testing.T) {
	charges := []struct {
		c      Component
		cycles uint64
	}{
		{CompMDCacheHit, 1}, {CompMDCacheHit, 3}, {CompMDCacheHit, 3},
		{CompMDFetch, 200}, {CompDRAMService, 40}, {CompDRAMQueue, 1 << 40},
		{CompDecompress, 1 << 63}, {CompDecompress, math.MaxUint64}, {CompLinkQueue, 2},
	}
	feed := func(a *Attribution) [NComponents]Histogram {
		var want [NComponents]Histogram
		for i, ch := range charges {
			a.Begin(0, uint64(i), false)
			a.Exposed(ch.c, ch.cycles)
			a.End(ch.cycles)
			want[ch.c].Observe(bits.Len64(ch.cycles))
		}
		return want
	}
	check := func(label string, s AttributionSnapshot, want [NComponents]Histogram) {
		t.Helper()
		m := s.Metrics()
		for c := Component(0); c < NComponents; c++ {
			w := want[c].Snapshot()
			if got := s.Components[c].Latency; !reflect.DeepEqual(got, w) {
				t.Errorf("%s: %s latency %+v, want %+v", label, c, got, w)
			}
			got, ok := m.Hists["attr."+c.String()+".latency"]
			if ok != (w.Total > 0) || (ok && !reflect.DeepEqual(got, w)) {
				t.Errorf("%s: %s metrics histogram %+v (present %v), want %+v", label, c, got, ok, w)
			}
		}
	}

	a := NewAttribution(4)
	want := feed(a)
	if want[CompDecompress].Count(64) != 2 {
		t.Fatalf("reference missed class 64: %+v", want[CompDecompress].Snapshot())
	}
	check("fed", a.Snapshot(), want)

	merged := a.Snapshot()
	merged.Merge(a.Snapshot(), 4)
	var twice [NComponents]Histogram
	for c := range twice {
		twice[c].AddSnapshot(want[c].Snapshot())
		twice[c].AddSnapshot(want[c].Snapshot())
	}
	check("merged", merged, twice)

	a.Reset()
	check("reset", a.Snapshot(), [NComponents]Histogram{})
	want = feed(a)
	check("re-fed", a.Snapshot(), want)
}

// attrStream is a seeded access stream for the End benchmarks: zipf
// pages over 4,096, about 18% of accesses charging only DRAM time
// (zero overhead), the rest a metadata and a decompression charge.
type attrAccess struct{ page, dram, md, dec uint64 }

func attrStream(n int) []attrAccess {
	r := rand.New(rand.NewSource(7))
	z := rand.NewZipf(r, 1.1, 1, 4095)
	out := make([]attrAccess, n)
	for i := range out {
		out[i] = attrAccess{page: z.Uint64(), dram: uint64(20 + r.Intn(60))}
		if r.Intn(100) >= 18 {
			out[i].md = uint64(r.Intn(3)) * 40
			out[i].dec = uint64(1 + r.Intn(12))
		}
	}
	return out
}

// attrAccessOnce brackets one stream access with Begin/End.
func attrAccessOnce(a *Attribution, now uint64, x attrAccess) uint64 {
	a.Begin(now, x.page, false)
	a.Exposed(CompMDFetch, x.md)
	a.ExposedDRAM(x.dram/4, x.dram-x.dram/4)
	a.Exposed(CompDecompress, x.dec)
	done := now + x.md + x.dram + x.dec
	a.End(done)
	return done
}

// BenchmarkAttributionEnd times one ledger-bracketed access (Begin,
// three charges, End) with a 32-page hot-page profile.
func BenchmarkAttributionEnd(b *testing.B) {
	stream := attrStream(1 << 16)
	a := NewAttribution(32)
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = attrAccessOnce(a, now, stream[i&(len(stream)-1)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// TestAttributionEndAllocatesNothing requires a steady-state access to
// allocate nothing once the profile is full and the counter series has
// reached its bound.
func TestAttributionEndAllocatesNothing(t *testing.T) {
	stream := attrStream(1 << 12)
	a := NewAttribution(32)
	var now uint64
	for i := 0; i < attrSeriesStride*attrSeriesCap; i++ {
		now = attrAccessOnce(a, now, stream[i&(len(stream)-1)])
	}
	if n := len(a.pages.entries); n != 32 {
		t.Fatalf("profile holds %d pages after warm-up, want 32", n)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		now = attrAccessOnce(a, now, stream[i&(len(stream)-1)])
		i++
	}); n != 0 {
		t.Fatalf("End allocates %v times per access", n)
	}
}
