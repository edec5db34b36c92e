// Package memctl defines the memory-controller abstraction shared by
// the uncompressed baseline, the LCP baselines (internal/lcp) and
// Compresso (internal/core), together with the extra-access accounting
// that Figures 4 and 6 of the paper are denominated in.
//
// A controller sits below the last-level cache: it serves LLC fills
// (ReadLine) and dirty writebacks (WriteLine) on the OSPA address
// space, translating to machine physical addresses and issuing DRAM
// accesses through internal/dram.
package memctl

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/obs"
)

// LineBytes is the demand access granularity.
const LineBytes = 64

// PageSize is the fixed OSPA page size.
const PageSize = 4096

// LinesPerPage is the number of lines per OSPA page.
const LinesPerPage = PageSize / LineBytes

// LineSource supplies the current value of any OSPA line. The
// simulator's workload image implements it; controllers use it where
// real hardware would use the data that arrives with a writeback or
// already resides in memory (page moves, repacking).
type LineSource interface {
	// ReadLine copies the 64-byte value of the OSPA line into buf.
	ReadLine(lineAddr uint64, buf []byte)
}

// LineSizer is an optional LineSource extension: SizeLine returns
// exactly compress.SizeOnly(codec, current line content), typically
// memoized. Controllers may use it in place of compressing data they
// just obtained from (or are about to hand to) the source — i.e. only
// where the data being sized is the source's live content, which is
// the simulator's contract for demand writebacks and InstallPage.
// Controllers must fall back to sizing the data directly when the
// source does not implement LineSizer.
type LineSizer interface {
	SizeLine(codec compress.Codec, lineAddr uint64) int
}

// LineViewer is an optional LineSource extension: Line returns a
// read-only view of the line's current 64-byte value, so a caller that
// only reads the value need not copy it. Like InstallPage's lines, the
// view aliases live source memory: callers must not write through it
// or retain it past the call they hand it to. Callers must fall back
// to ReadLine when the source does not implement LineViewer.
type LineViewer interface {
	Line(lineAddr uint64) []byte
}

// LZBlockBytes is the coarse compression granularity of the dmc and mxt
// baselines: their cold data is LZ-compressed in 1 KB blocks.
const LZBlockBytes = 1024

// LZBlockLines is the number of lines in an LZBlockBytes block.
const LZBlockLines = LZBlockBytes / LineBytes

// LZBlockSizer is an optional LineSource extension, the block analogue
// of LineSizer: SizeLZBlock returns exactly compress.LZSizeBlock over
// the current content of the LZBlockLines lines starting at firstLine
// (a multiple of LZBlockLines), typically memoized. Controllers must
// fall back to reading the lines and sizing them directly when the
// source does not implement LZBlockSizer.
type LZBlockSizer interface {
	SizeLZBlock(firstLine uint64) int
}

// Result reports the timing of one demand access.
type Result struct {
	// Done is the core cycle at which the critical path completes:
	// data availability for reads, acceptance for (posted) writes.
	Done uint64
}

// Stats is the access accounting every controller maintains. The
// paper's central metric — "additional compression-related data
// movement relative to an uncompressed system" (Figs. 4 and 6) — is
// ExtraAccesses()/DemandAccesses().
type Stats struct {
	// Demand traffic as seen from the LLC.
	DemandReads  uint64
	DemandWrites uint64

	// DRAM data accesses serving demand traffic directly (at most one
	// per demand access; zero for zero-lines and prefetch hits).
	DataReads  uint64
	DataWrites uint64

	// The three extra-access categories of Fig. 4.
	SplitAccesses    uint64 // second access for boundary-straddling lines
	OverflowAccesses uint64 // line/page overflow handling data movement
	MetadataReads    uint64 // metadata-cache miss fills
	MetadataWrites   uint64 // dirty metadata writebacks

	// RepackAccesses is the movement spent by dynamic repacking
	// (§IV-B4; the paper keeps it distinct at 1.8%).
	RepackAccesses uint64

	// Savings relative to an uncompressed system.
	ZeroLineOps     uint64 // demand ops served from metadata alone
	PrefetchHits    uint64 // reads served by a previous access's burst
	SpeculationMiss uint64 // LCP-only: wasted speculative accesses

	// Overlapped-controller timing model (opt-in, sim.Config.Overlap):
	// decompression pipelined against DRAM service. Hidden cycles were
	// absorbed into the DRAM window; exposed cycles still serialized.
	// All zero when the overlap model is off.
	OverlapReads         uint64 // compressed reads the overlap model timed
	OverlapHiddenCycles  uint64 // decompress cycles hidden under DRAM service
	OverlapExposedCycles uint64 // decompress cycles still on the critical path

	// Event counters.
	LineOverflows  uint64
	LineUnderflows uint64
	PageOverflows  uint64
	IRPlacements   uint64 // overflows absorbed by the inflation room
	IRExpansions   uint64 // §IV-B3 dynamic expansions
	Repacks        uint64
	RepackAborts   uint64 // repack checks that found too little gain
	Predictions    uint64 // §IV-B2 speculative page uncompressions
	PageFaults     uint64 // LCP-only: OS faults on page overflow

	// Robustness counters (internal/faults injection + internal/audit
	// state auditing). All zero when injection and auditing are off;
	// RepairAccesses is deliberately excluded from ExtraAccesses so the
	// paper's Fig. 4/6 accounting is unchanged by recovery traffic.
	InjectedFaults      uint64 // faults the injector fired inside this controller
	ForcedMDMisses      uint64 // injected metadata-cache invalidations
	AuditRuns           uint64 // state audits executed
	CorruptionsDetected uint64 // violations found by audits and load-time checks
	CorruptionsHealed   uint64 // corrupt lines healed by a later demand writeback
	PagesRepaired       uint64 // pages rebuilt from the authoritative data
	RepairFallbacks     uint64 // repairs that stored the page uncompressed
	RepairAccesses      uint64 // DRAM writes spent re-laying-out repaired pages
}

// CorruptionSummary renders the robustness counters for end-of-run
// reporting (empty when nothing was injected, detected or repaired).
func (s Stats) CorruptionSummary() string {
	if s.InjectedFaults == 0 && s.CorruptionsDetected == 0 && s.AuditRuns == 0 {
		return ""
	}
	return fmt.Sprintf(
		"%d faults injected (%d forced md misses) | %d audits: %d corruptions detected, "+
			"%d healed by writeback, %d pages repaired (%d uncompressed fallbacks, %d repair writes)",
		s.InjectedFaults, s.ForcedMDMisses, s.AuditRuns, s.CorruptionsDetected,
		s.CorruptionsHealed, s.PagesRepaired, s.RepairFallbacks, s.RepairAccesses)
}

// DemandAccesses returns the LLC-visible access count, the denominator
// of the paper's relative-extra-access figures.
func (s Stats) DemandAccesses() uint64 { return s.DemandReads + s.DemandWrites }

// ExtraAccesses returns the compression-induced additional memory
// accesses (the numerator of Figs. 4 and 6).
func (s Stats) ExtraAccesses() uint64 {
	return s.SplitAccesses + s.OverflowAccesses + s.MetadataReads + s.MetadataWrites +
		s.RepackAccesses + s.SpeculationMiss
}

// RelativeExtra returns extra accesses relative to demand accesses.
func (s Stats) RelativeExtra() float64 {
	if s.DemandAccesses() == 0 {
		return 0
	}
	return float64(s.ExtraAccesses()) / float64(s.DemandAccesses())
}

// Register records every counter into r under prefix (canonically
// "memctl"), plus the derived relative-extra-access gauge (DESIGN.md
// §8 naming scheme). The gauge registers unconditionally — reading 0
// when there is no demand traffic — so the series cannot flap in and
// out of /metrics and sampler windows between the warmup reset and the
// first demand op.
func (s Stats) Register(r *obs.Registry, prefix string) {
	r.AddStruct(prefix, s)
	r.Gauge(prefix + ".relative_extra").Set(s.RelativeExtra())
}

// Controller is the OSPA-facing memory controller interface.
type Controller interface {
	// Name identifies the architecture ("uncompressed", "lcp",
	// "lcp-align", "compresso").
	Name() string

	// ReadLine serves an LLC fill of the given OSPA line address
	// (line units) issued at core cycle now.
	ReadLine(now uint64, lineAddr uint64) Result

	// WriteLine serves a dirty LLC writeback carrying the line's new
	// 64-byte value. Implementations must not write through data or
	// retain it past the call: it may be a LineViewer's view of the
	// source's live memory.
	WriteLine(now uint64, lineAddr uint64, data []byte) Result

	// InstallPage pre-populates an OSPA page with its initial lines at
	// simulation setup, with no stat or timing charges (the paper's
	// fast-forward to a CompressPoint). Implementations must not retain
	// lines or its element slices past the call: callers may reuse the
	// same scratch view for every page, and the elements alias live
	// image memory.
	InstallPage(page uint64, lines [][]byte)

	// Stats returns the access accounting so far.
	Stats() Stats

	// ResetStats zeroes the accounting (end of warmup) without
	// touching memory contents or cache state.
	ResetStats()

	// CompressedBytes returns the current MPA bytes used for data
	// (excluding metadata), for compression-ratio reporting.
	CompressedBytes() int64

	// InstalledBytes returns the OSPA bytes installed (footprint).
	InstalledBytes() int64
}

// CompressionRatio returns footprint / compressed storage for c,
// clamped to 1.0 in the degenerate cases — nothing installed yet, or a
// backend that reports storage without a footprint — where a literal
// division would report 0 or blow up. Negative byte counts are an
// accounting bug in the controller, not a data condition, so they
// panic instead of being laundered into a plausible-looking ratio.
func CompressionRatio(c Controller) float64 {
	used := c.CompressedBytes()
	installed := c.InstalledBytes()
	if used < 0 || installed < 0 {
		panic(fmt.Sprintf("memctl: %s reports negative storage accounting (installed %d, compressed %d)",
			c.Name(), installed, used))
	}
	if used == 0 || installed == 0 {
		return 1
	}
	return float64(installed) / float64(used)
}

// Uncompressed is the baseline controller: OSPA == MPA, every demand
// access is exactly one DRAM access, no metadata.
type Uncompressed struct {
	port      Port
	stats     Stats
	installed int64
}

// NewUncompressed builds the baseline over mem.
func NewUncompressed(mem *dram.Memory) *Uncompressed {
	u := &Uncompressed{}
	u.port = NewPort(mem, &u.stats, 0)
	return u
}

// Name implements Controller.
func (u *Uncompressed) Name() string { return "uncompressed" }

// SetAttribution installs the cycle-accounting ledger (nil disables).
func (u *Uncompressed) SetAttribution(a *obs.Attribution) { u.port.SetAttribution(a) }

// ReadLine implements Controller.
func (u *Uncompressed) ReadLine(now uint64, lineAddr uint64) Result {
	u.stats.DemandReads++
	attr := u.port.Attr()
	attr.Begin(now, lineAddr/LinesPerPage, false)
	done, queue, service := u.port.Read(now, lineAddr)
	attr.ExposedDRAM(queue, service)
	attr.End(done)
	return Result{Done: done}
}

// WriteLine implements Controller.
func (u *Uncompressed) WriteLine(now uint64, lineAddr uint64, data []byte) Result {
	u.stats.DemandWrites++
	attr := u.port.Attr()
	attr.Begin(now, lineAddr/LinesPerPage, true)
	u.port.Write(now, lineAddr)
	attr.End(now)
	return Result{Done: now}
}

// InstallPage implements Controller.
func (u *Uncompressed) InstallPage(page uint64, lines [][]byte) {
	u.installed += PageSize
}

// Stats implements Controller.
func (u *Uncompressed) Stats() Stats { return u.stats }

// ResetStats implements Controller.
func (u *Uncompressed) ResetStats() { u.stats = Stats{} }

// CompressedBytes implements Controller: the baseline stores pages
// verbatim.
func (u *Uncompressed) CompressedBytes() int64 { return u.installed }

// InstalledBytes implements Controller.
func (u *Uncompressed) InstalledBytes() int64 { return u.installed }
