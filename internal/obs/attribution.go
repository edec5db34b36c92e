package obs

import (
	"fmt"
	"math/bits"
	"sort"
)

// Component identifies one typed slice of a memory access's
// end-to-end latency in the cycle-accounting attribution ledger
// (DESIGN.md §14). Components are the vocabulary every backend's
// read/write paths decompose their charged latency into; the set is
// the union across backends, and a backend simply never charges the
// components its design lacks.
type Component uint8

const (
	// CompMDCacheHit is the fixed metadata-cache hit latency.
	CompMDCacheHit Component = iota
	// CompMDFetch is a metadata miss: the DRAM fetch of the metadata
	// line (and, hidden, any backing-store maintenance it triggers).
	CompMDFetch
	// CompDRAMQueue is time an access spent waiting for its bank/bus
	// (dram.Memory's queue share of the demand data access).
	CompDRAMQueue
	// CompDRAMService is the DRAM command + burst share of the demand
	// data access.
	CompDRAMService
	// CompDecompress is decompression latency; under the overlap model
	// the share absorbed into the DRAM window is charged hidden.
	CompDecompress
	// CompSplit is the extra access of a line straddling two DRAM
	// lines; the non-dominant half of the pair is charged hidden.
	CompSplit
	// CompOverflow covers line/page overflow work: inflation-room
	// placement, page regrow movement, and LCP's overflow page fault.
	CompOverflow
	// CompUnderflow is movement spent shrinking a layout (repack-to-fit
	// on writeback paths that compact rather than grow).
	CompUnderflow
	// CompRepack is dynamic repacking traffic (page moves plus the
	// metadata write-back that commits them).
	CompRepack
	// CompSpecMiss is wasted speculation: LCP's discarded speculative
	// read, CRAM's mispredicted-location access.
	CompSpecMiss
	// CompLinkHeader is CXL link header-flit serialization plus
	// propagation latency.
	CompLinkHeader
	// CompLinkPayload is CXL link payload-flit serialization.
	CompLinkPayload
	// CompLinkQueue is time waiting for a busy CXL link direction.
	CompLinkQueue

	// NComponents bounds the enum for array sizing.
	NComponents
)

var componentNames = [NComponents]string{
	"md_cache_hit",
	"md_fetch",
	"dram_queue",
	"dram_service",
	"decompress",
	"split",
	"overflow",
	"underflow",
	"repack",
	"spec_miss",
	"link_header",
	"link_payload",
	"link_queue",
}

// String returns the component's stable snake_case name (used in
// artifacts, metric names, and trace tracks).
func (c Component) String() string {
	if c < NComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// Attribution is the per-run cycle-accounting ledger. A controller
// brackets every ReadLine/WriteLine with Begin/End and charges typed
// latency slices in between: Exposed cycles are on the access's
// critical path and must sum exactly to the charged latency
// (Result.Done - now) — End verifies this conservation invariant per
// access and counts violations — while Hidden cycles record
// off-critical-path work (posted writes, overlapped decompression,
// the slower half of a split pair, wasted speculation, repack
// movement) without affecting conservation.
//
// A nil *Attribution is a complete no-op, so the ledger is free when
// attribution is off — the same contract as *Tracer. Attribution is
// not safe for concurrent use; parallel runs attach one ledger per
// controller and merge the snapshots.
type Attribution struct {
	exposed [NComponents]uint64
	hidden  [NComponents]uint64
	charges [NComponents]uint64 // accesses that charged the component exposed
	// classes counts accesses by latency class bits.Len64(exposed
	// cycles), 0..64; Snapshot renders them as Histograms.
	classes [NComponents][65]uint64

	accesses   uint64
	reads      uint64
	writes     uint64
	charged    uint64 // sum of per-access charged latency
	violations uint64
	firstViol  string

	// In-flight access state.
	open      bool
	start     uint64
	page      uint64
	write     bool
	posted    bool
	sum       uint64
	acc       [NComponents]uint64
	touched   uint16 // bit c set when acc[c] was charged this access
	accHidden uint64

	pages *pageProfile

	// Decimating cumulative-exposed series for counter-track export:
	// one point per stride accesses, stride doubling once the buffer
	// fills so the series stays bounded for any run length.
	stride      uint64
	sinceSample uint64
	series      []AttrPoint
}

// attrSeriesCap bounds the counter series; attrSeriesStride is the
// initial accesses-per-point stride.
const (
	attrSeriesCap    = 512
	attrSeriesStride = 256
)

// NewAttribution returns a ledger with a hot-page profile bounded to
// topPages entries (<= 0 disables the profile).
func NewAttribution(topPages int) *Attribution {
	a := &Attribution{stride: attrSeriesStride}
	if topPages > 0 {
		a.pages = newPageProfile(topPages)
	}
	return a
}

// Begin opens the ledger for one access. NoPage is a valid page for
// accesses with no page identity.
func (a *Attribution) Begin(now, page uint64, write bool) {
	if a == nil {
		return
	}
	a.open = true
	a.start = now
	a.page = page
	a.write = write
	a.posted = false
	a.sum = 0
	for m := a.touched; m != 0; m &= m - 1 {
		a.acc[bits.TrailingZeros16(m)] = 0
	}
	a.touched = 0
	a.accHidden = 0
}

// Posted marks the open access as posted (charged latency zero):
// every subsequent Exposed charge demotes to hidden, so code shared
// between read and write paths can charge unconditionally and the
// conservation sum stays at the posted access's zero.
func (a *Attribution) Posted() {
	if a == nil {
		return
	}
	a.posted = true
}

// Exposed charges cycles on the open access's critical path (demoted
// to hidden while the access is marked Posted).
func (a *Attribution) Exposed(c Component, cycles uint64) {
	if a == nil || cycles == 0 {
		return
	}
	if a.open && a.posted {
		a.Hidden(c, cycles)
		return
	}
	a.ExposedCritical(c, cycles)
}

// ExposedCritical charges cycles on the critical path even when the
// access is marked Posted — for the rare posted-write path that does
// charge latency (LCP's overflow page fault).
func (a *Attribution) ExposedCritical(c Component, cycles uint64) {
	if a == nil || cycles == 0 {
		return
	}
	a.exposed[c] += cycles
	if a.open {
		a.sum += cycles
		a.acc[c] += cycles
		a.touched |= 1 << c
	}
}

// Hidden records off-critical-path cycles (they do not count toward
// the conservation sum).
func (a *Attribution) Hidden(c Component, cycles uint64) {
	if a == nil || cycles == 0 {
		return
	}
	a.hidden[c] += cycles
	if a.open {
		a.accHidden += cycles
	}
}

// ExposedDRAM charges a dram.Memory access breakdown (queue share,
// then service share) on the critical path.
func (a *Attribution) ExposedDRAM(queue, service uint64) {
	if a == nil {
		return
	}
	a.Exposed(CompDRAMQueue, queue)
	a.Exposed(CompDRAMService, service)
}

// HiddenDRAM records a dram.Memory access breakdown (queue share, then
// service share) as off-critical-path work: a posted write's own DRAM
// time, or a read that completed under a slower one.
func (a *Attribution) HiddenDRAM(queue, service uint64) {
	if a == nil {
		return
	}
	a.Hidden(CompDRAMQueue, queue)
	a.Hidden(CompDRAMService, service)
}

// End closes the access: verifies the conservation invariant (the
// exposed charges sum to done-now exactly), folds the per-access
// component totals into the latency histograms, and feeds the
// hot-page profile.
func (a *Attribution) End(done uint64) {
	if a == nil || !a.open {
		return
	}
	a.open = false
	total := done - a.start
	a.accesses++
	if a.write {
		a.writes++
	} else {
		a.reads++
	}
	a.charged += total
	if a.sum != total {
		a.violations++
		if a.firstViol == "" {
			kind := "read"
			if a.write {
				kind = "write"
			}
			a.firstViol = fmt.Sprintf("%s page %d at cycle %d: components sum to %d, charged %d",
				kind, a.page, a.start, a.sum, total)
		}
	}
	var overhead uint64
	for m := a.touched; m != 0; m &= m - 1 {
		c := Component(bits.TrailingZeros16(m))
		if v := a.acc[c]; v > 0 {
			a.charges[c]++
			a.classes[c][bits.Len64(v)]++
			if c != CompDRAMQueue && c != CompDRAMService {
				overhead += v
			}
		}
	}
	overhead += a.accHidden
	if a.pages != nil && a.page != NoPage {
		a.pages.record(a.page, overhead)
	}
	a.sinceSample++
	if a.sinceSample >= a.stride {
		a.sinceSample = 0
		a.series = append(a.series, AttrPoint{Cycle: done, Exposed: a.exposed})
		if len(a.series) >= attrSeriesCap {
			// Decimate: keep every other point, double the stride.
			keep := a.series[:0]
			for i := 1; i < len(a.series); i += 2 {
				keep = append(keep, a.series[i])
			}
			a.series = keep
			a.stride *= 2
		}
	}
}

// Reset clears all accumulated state (the warmup boundary), keeping
// the configured bounds.
func (a *Attribution) Reset() {
	if a == nil {
		return
	}
	top := 0
	if a.pages != nil {
		top = a.pages.cap
	}
	*a = *NewAttribution(top)
}

// Violations returns the conservation-violation count so far.
func (a *Attribution) Violations() uint64 {
	if a == nil {
		return 0
	}
	return a.violations
}

// ComponentBreakdown is one component's totals in a snapshot.
type ComponentBreakdown struct {
	Component     string       `json:"component"`
	ExposedCycles uint64       `json:"exposed_cycles"`
	HiddenCycles  uint64       `json:"hidden_cycles"`
	Charges       uint64       `json:"charges"`
	Latency       HistSnapshot `json:"latency"`
}

// HotPage is one entry of the bounded top-N hot-page profile: the
// pages charged the most overhead cycles (exposed non-DRAM components
// plus hidden work). ErrorBound is the Space-Saving overestimate
// bound inherited from the entry evicted at admission.
type HotPage struct {
	Page           uint64 `json:"page"`
	OverheadCycles uint64 `json:"overhead_cycles"`
	Accesses       uint64 `json:"accesses"`
	ErrorBound     uint64 `json:"error_bound"`
}

// AttrPoint is one cumulative sample of the per-component exposed
// cycles, for counter-track export.
type AttrPoint struct {
	Cycle   uint64              `json:"cycle"`
	Exposed [NComponents]uint64 `json:"exposed"`
}

// AttributionSnapshot is the exported state of a ledger. Components
// always holds all NComponents entries in enum order, so consumers
// (tables, artifacts) have a stable shape.
type AttributionSnapshot struct {
	Accesses       uint64               `json:"accesses"`
	Reads          uint64               `json:"reads"`
	Writes         uint64               `json:"writes"`
	ChargedCycles  uint64               `json:"charged_cycles"`
	Violations     uint64               `json:"violations"`
	FirstViolation string               `json:"first_violation,omitempty"`
	Components     []ComponentBreakdown `json:"components"`
	HotPages       []HotPage            `json:"hot_pages"`
	Series         []AttrPoint          `json:"series,omitempty"`
}

// EmptyAttributionSnapshot returns a snapshot with the stable
// all-components shape and no data (what a nil ledger reports).
func EmptyAttributionSnapshot() AttributionSnapshot {
	s := AttributionSnapshot{
		Components: make([]ComponentBreakdown, NComponents),
		HotPages:   []HotPage{},
	}
	for c := Component(0); c < NComponents; c++ {
		s.Components[c].Component = c.String()
	}
	return s
}

// Snapshot exports the ledger. A nil ledger exports the empty
// snapshot.
func (a *Attribution) Snapshot() AttributionSnapshot {
	s := EmptyAttributionSnapshot()
	if a == nil {
		return s
	}
	s.Accesses, s.Reads, s.Writes = a.accesses, a.reads, a.writes
	s.ChargedCycles = a.charged
	s.Violations = a.violations
	s.FirstViolation = a.firstViol
	for c := Component(0); c < NComponents; c++ {
		s.Components[c].ExposedCycles = a.exposed[c]
		s.Components[c].HiddenCycles = a.hidden[c]
		s.Components[c].Charges = a.charges[c]
		var h Histogram
		for class, n := range a.classes[c] {
			if n > 0 {
				h.ObserveN(class, n)
			}
		}
		s.Components[c].Latency = h.Snapshot()
	}
	if a.pages != nil {
		s.HotPages = a.pages.top()
	}
	s.Series = append([]AttrPoint(nil), a.series...)
	return s
}

// Merge folds other into s (multi-core runs keep one ledger per
// controller and merge the snapshots): counters add, histograms add,
// hot pages combine by page and re-truncate to topPages (<= 0 keeps
// them all), the first violation detail wins. The sample series do not
// interleave meaningfully, so the merged snapshot drops them.
func (s *AttributionSnapshot) Merge(other AttributionSnapshot, topPages int) {
	s.Accesses += other.Accesses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ChargedCycles += other.ChargedCycles
	s.Violations += other.Violations
	if s.FirstViolation == "" {
		s.FirstViolation = other.FirstViolation
	}
	for c := range s.Components {
		s.Components[c].ExposedCycles += other.Components[c].ExposedCycles
		s.Components[c].HiddenCycles += other.Components[c].HiddenCycles
		s.Components[c].Charges += other.Components[c].Charges
		var h Histogram
		h.AddSnapshot(s.Components[c].Latency)
		h.AddSnapshot(other.Components[c].Latency)
		s.Components[c].Latency = h.Snapshot()
	}
	byPage := map[uint64]HotPage{}
	for _, p := range append(append([]HotPage{}, s.HotPages...), other.HotPages...) {
		e := byPage[p.Page]
		e.Page = p.Page
		e.OverheadCycles += p.OverheadCycles
		e.Accesses += p.Accesses
		e.ErrorBound += p.ErrorBound
		byPage[p.Page] = e
	}
	merged := make([]HotPage, 0, len(byPage))
	for _, p := range byPage {
		merged = append(merged, p)
	}
	sortHotPages(merged)
	if topPages > 0 && len(merged) > topPages {
		merged = merged[:topPages]
	}
	s.HotPages = merged
	s.Series = nil
}

// Metrics renders the snapshot as a registry-shaped snapshot for
// Prometheus exposition (attr.* namespace). It is kept out of the
// run registry itself so committed artifacts never depend on whether
// attribution ran.
func (s AttributionSnapshot) Metrics() Snapshot {
	out := Snapshot{
		Counters: map[string]uint64{
			"attr.accesses":       s.Accesses,
			"attr.reads":          s.Reads,
			"attr.writes":         s.Writes,
			"attr.charged_cycles": s.ChargedCycles,
			"attr.violations":     s.Violations,
		},
		Gauges: map[string]float64{},
		Hists:  map[string]HistSnapshot{},
	}
	for _, c := range s.Components {
		out.Counters["attr."+c.Component+".exposed_cycles"] = c.ExposedCycles
		out.Counters["attr."+c.Component+".hidden_cycles"] = c.HiddenCycles
		out.Counters["attr."+c.Component+".charges"] = c.Charges
		if c.Latency.Total > 0 {
			out.Hists["attr."+c.Component+".latency"] = c.Latency
		}
	}
	return out
}

// ChromeCounters converts the snapshot's cumulative series into
// Perfetto/Chrome counter tracks under pid: one "C" event per sample
// per component that ever charged exposed cycles.
func (s AttributionSnapshot) ChromeCounters(pid int) []ChromeEvent {
	if len(s.Series) == 0 {
		return nil
	}
	active := make([]Component, 0, NComponents)
	last := s.Series[len(s.Series)-1]
	for c := Component(0); c < NComponents; c++ {
		if last.Exposed[c] > 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return nil
	}
	out := make([]ChromeEvent, 0, len(s.Series)*len(active)+1)
	out = append(out, ProcessName(pid, "attribution"))
	for _, p := range s.Series {
		for _, c := range active {
			out = append(out, ChromeEvent{
				Name:  "attr." + c.String(),
				Cat:   "attribution",
				Phase: "C",
				TsUs:  float64(p.Cycle) / traceCyclesPerUs,
				Pid:   pid,
				Args:  map[string]interface{}{"cycles": p.Exposed[c]},
			})
		}
	}
	return out
}

func sortHotPages(pages []HotPage) {
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].OverheadCycles != pages[j].OverheadCycles {
			return pages[i].OverheadCycles > pages[j].OverheadCycles
		}
		return pages[i].Page < pages[j].Page
	})
}

// pageProfile is a deterministic Space-Saving heavy-hitter sketch
// over pages, weighted by overhead cycles: at most cap entries, and
// a new page admitted over a full table replaces the minimum-weight
// entry (earliest index on ties), inheriting its weight as the
// overestimate bound.
//
// It keeps no Go map: pages are found through an open-addressed index
// (linear probing over a power-of-two table of at least 4*cap slots,
// backward-shift deletion), and weights mirrors entries' OverheadCycles
// packed for the eviction scan.
type pageProfile struct {
	cap     int
	entries []HotPage
	weights []uint64
	slots   []pageSlot
	shift   uint // 64 - log2(len(slots))
}

// pageSlot maps page to entry ref-1; ref 0 marks an empty slot.
type pageSlot struct {
	page uint64
	ref  uint32
}

func newPageProfile(n int) *pageProfile {
	shift := uint(62 - bits.Len(uint(n-1))) // 4x the next power of two >= n
	return &pageProfile{cap: n, slots: make([]pageSlot, 1<<(64-shift)), shift: shift}
}

// home is page's preferred slot (Fibonacci hashing).
func (p *pageProfile) home(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> p.shift)
}

// find returns the slot holding page, or the empty slot that ends its
// probe run.
func (p *pageProfile) find(page uint64) int {
	mask := len(p.slots) - 1
	i := p.home(page)
	for p.slots[i].ref != 0 && p.slots[i].page != page {
		i = (i + 1) & mask
	}
	return i
}

// remove empties the occupied slot i, shifting later entries of its
// probe run back so that no run has a hole.
func (p *pageProfile) remove(i int) {
	mask := len(p.slots) - 1
	for j := (i + 1) & mask; p.slots[j].ref != 0; j = (j + 1) & mask {
		if h := p.home(p.slots[j].page); (i-h)&mask < (j-h)&mask {
			p.slots[i] = p.slots[j]
			i = j
		}
	}
	p.slots[i] = pageSlot{}
}

func (p *pageProfile) record(page, weight uint64) {
	s := p.find(page)
	if r := p.slots[s].ref; r != 0 {
		p.weights[r-1] += weight
		p.entries[r-1].OverheadCycles += weight
		p.entries[r-1].Accesses++
		return
	}
	if len(p.entries) < p.cap {
		p.slots[s] = pageSlot{page: page, ref: uint32(len(p.entries) + 1)}
		p.entries = append(p.entries, HotPage{Page: page, OverheadCycles: weight, Accesses: 1})
		p.weights = append(p.weights, weight)
		return
	}
	if weight == 0 {
		// Zero-overhead accesses never evict: the table tracks where
		// overhead concentrates, not raw popularity.
		return
	}
	victim, bound := 0, p.weights[0]
	for i, w := range p.weights {
		if w < bound {
			victim, bound = i, w
		}
	}
	p.remove(p.find(p.entries[victim].Page))
	p.slots[p.find(page)] = pageSlot{page: page, ref: uint32(victim + 1)}
	p.weights[victim] = bound + weight
	p.entries[victim] = HotPage{Page: page, OverheadCycles: bound + weight, Accesses: 1, ErrorBound: bound}
}

// top returns the entries sorted by overhead (descending), page
// ascending on ties.
func (p *pageProfile) top() []HotPage {
	out := append([]HotPage(nil), p.entries...)
	sortHotPages(out)
	return out
}
