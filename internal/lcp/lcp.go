// Package lcp implements the paper's competitive baseline (§VI-F): an
// optimized Linearly-Compressed-Pages memory controller using the same
// modified-BPC compressor as Compresso.
//
// LCP (Pekhimenko et al., MICRO 2013) compresses every cache line of a
// page to one per-page target size so that a line's offset is just
// line*target; lines that do not fit the target live uncompressed in an
// exception region, found through explicit metadata pointers. The
// baseline here includes the paper's enhancements: 4 compressed page
// sizes with an exception region, a Compresso-sized metadata cache,
// zero-line handling, free-prefetch modeling, and LCP's speculative
// main-memory access issued in parallel with a metadata-cache miss.
//
// LCP is OS-aware: page overflows raise a page fault and the OS
// relocates the page (§VII-A: "LCP-system, being OS-aware, requires a
// page fault upon every page overflow"), which is both slower per event
// and the reason LCP needs OS modifications at all.
//
// The package is also the one home of LCP-packing: the page layout
// (Page, ChooseTarget, SizeFor) and the buddy-block store (Store) are
// shared with dmc's hot tier and the capacity model's LCP price.
package lcp

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
)

// Config parameterizes the LCP controller.
type Config struct {
	OSPAPages    int
	MachineBytes int64

	Codec compress.Codec
	// Bins supplies the candidate target sizes. LegacyBins (0/22/44/64)
	// is the published LCP configuration; CompressoBins (0/8/32/64)
	// yields the LCP+Align variant of the paper's evaluation.
	Bins compress.Bins

	MetadataCache metadata.CacheConfig

	// PageFaultPenalty is the OS page-fault handling cost in core
	// cycles charged on every page overflow.
	PageFaultPenalty uint64

	CompressLatency    uint64
	DecompressLatency  uint64
	MetadataHitLatency uint64
	PrefetchBuffer     int

	// Speculate enables the parallel speculative data access on
	// metadata misses.
	Speculate bool

	OnMemoryPressure func(needChunks int) bool
}

// DefaultConfig returns the paper's LCP baseline configuration.
func DefaultConfig(ospaPages int, machineBytes int64) Config {
	mdc := metadata.DefaultCacheConfig()
	mdc.HalfEntry = false // §IV-B5 is a Compresso optimization
	return Config{
		OSPAPages:          ospaPages,
		MachineBytes:       machineBytes,
		Codec:              compress.BPC{},
		Bins:               compress.LegacyBins,
		MetadataCache:      mdc,
		PageFaultPenalty:   5000,
		CompressLatency:    12,
		DecompressLatency:  12,
		MetadataHitLatency: 2,
		PrefetchBuffer:     8,
		Speculate:          true,
	}
}

// AlignConfig returns the LCP+Align variant: LCP with Compresso's
// alignment-friendly line sizes.
func AlignConfig(ospaPages int, machineBytes int64) Config {
	cfg := DefaultConfig(ospaPages, machineBytes)
	cfg.Bins = compress.CompressoBins
	return cfg
}

// Controller is the LCP baseline memory controller.
type Controller struct {
	cfg    Config
	port   memctl.Port // DRAM, free-prefetch buffer and attribution ledger
	source memctl.LineSource
	sizer  memctl.LineSizer // source's memoized size path (nil when unsupported)

	pages []Page
	store *Store
	mdc   *metadata.Cache

	stats      memctl.Stats
	validPages int64

	pinned    uint64
	hasPinned bool
	name      string

	// tr records controller events (nil disables tracing). Every LCP
	// event site runs inside the demand access, so events carry the
	// access cycle directly.
	tr *obs.Tracer
}

var _ memctl.Controller = (*Controller)(nil)

// New builds an LCP controller over mem.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 {
		panic("lcp: OSPAPages must be positive")
	}
	name := "lcp"
	if cfg.Bins.Name() == compress.CompressoBins.Name() {
		name = "lcp-align"
	}
	sizer, _ := source.(memctl.LineSizer)
	c := &Controller{
		cfg:    cfg,
		source: source,
		sizer:  sizer,
		pages:  make([]Page, cfg.OSPAPages),
		store:  NewStore("lcp", cfg.OSPAPages, cfg.MachineBytes, cfg.OnMemoryPressure),
		mdc:    metadata.NewCache(cfg.MetadataCache),
		name:   name,
	}
	c.port = memctl.NewPort(mem, &c.stats, cfg.PrefetchBuffer)
	return c
}

// Name implements memctl.Controller.
func (c *Controller) Name() string { return c.name }

// Stats implements memctl.Controller.
func (c *Controller) Stats() memctl.Stats { return c.stats }

// ResetStats implements memctl.Controller (end of warmup).
func (c *Controller) ResetStats() {
	c.stats = memctl.Stats{}
	c.mdc.ResetStats()
}

// SetTracer installs the controller-event tracer (nil disables).
func (c *Controller) SetTracer(t *obs.Tracer) { c.tr = t }

// SetAttribution installs the cycle-accounting ledger (nil disables).
// LCP charges the metadata segment at the demand call sites rather
// than inside lookupMetadata: under speculation the metadata fetch
// may end up off the critical path, and only the caller knows.
func (c *Controller) SetAttribution(a *obs.Attribution) { c.port.SetAttribution(a) }

// MetadataCacheStats returns the metadata cache's counters.
func (c *Controller) MetadataCacheStats() metadata.CacheStats { return c.mdc.Stats() }

// CompressedBytes implements memctl.Controller.
func (c *Controller) CompressedBytes() int64 { return c.store.UsedBytes() }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

func (c *Controller) checkPage(page uint64) {
	if page >= uint64(len(c.pages)) {
		panic(fmt.Sprintf("lcp: OSPA page %d beyond advertised %d", page, len(c.pages)))
	}
}

// compressCode returns the bin code of data, the source's live content
// at lineAddr (demand writebacks, InstallPage): when the source exposes
// a memoized size path, sizing skips the compressor.
func (c *Controller) compressCode(lineAddr uint64, data []byte) uint8 {
	if c.sizer != nil {
		return uint8(c.cfg.Bins.Code(c.sizer.SizeLine(c.cfg.Codec, lineAddr)))
	}
	return uint8(c.cfg.Bins.Code(compress.SizeOnly(c.cfg.Codec, data)))
}

// --- metadata path ---------------------------------------------------------

// lookupMetadata returns (cache line, metadata-ready cycle, wasMiss).
func (c *Controller) lookupMetadata(now uint64, page uint64) (*metadata.Line, uint64, bool) {
	if l, ok := c.mdc.Lookup(page); ok {
		return l, now + c.cfg.MetadataHitLatency, false
	}
	done := c.port.MetadataRead(now, page)
	l, evicted := c.mdc.Insert(page, false)
	for _, ev := range evicted {
		if ev.Dirty {
			c.port.MetadataWriteback(now, ev.Page)
		}
		// No repacking in LCP (§IV-B4 is novel to Compresso).
	}
	return l, done, true
}

// --- demand path -------------------------------------------------------------

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	c.stats.DemandReads++
	attr := c.port.Attr()
	attr.Begin(now, page, false)

	l, mdDone, miss := c.lookupMetadata(now, page)
	mdComp := obs.CompMDCacheHit
	if miss {
		mdComp = obs.CompMDFetch
	}
	p := &c.pages[page]
	if !p.Valid {
		p.Valid = true
		p.Zero = true
		c.validPages++
		l.Dirty = true
	}
	if p.Zero || p.Sizes[line] == 0 {
		c.stats.ZeroLineOps++
		attr.Exposed(mdComp, mdDone-now)
		attr.End(mdDone)
		return memctl.Result{Done: mdDone}
	}

	// LCP's speculative access: on a metadata miss the controller
	// (whose TLB knows the page's target, being OS-aware) issues the
	// non-exception-location access in parallel with the metadata
	// fetch. Correct speculation hides the metadata latency; an
	// exception line wastes the access.
	slot, isExc := p.ExcSlot(line)
	tb := int(p.Target)
	if miss && c.cfg.Speculate && tb > 0 {
		reads := c.stats.DataReads
		specDone, q, srv := c.port.Read(now, c.store.Span(p, p.LineOffset(line), tb)...)
		if !isExc {
			done := specDone
			if mdDone > done {
				// The metadata fetch dominates: the correct speculative
				// read completed entirely under it.
				done = mdDone
				attr.Exposed(obs.CompMDFetch, mdDone-now)
				attr.HiddenDRAM(q, srv)
			} else {
				// The data read dominates: the metadata fetch is hidden.
				attr.Hidden(obs.CompMDFetch, mdDone-now)
				attr.ExposedDRAM(q, srv)
			}
			attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
			attr.End(done + c.cfg.DecompressLatency)
			return memctl.Result{Done: done + c.cfg.DecompressLatency}
		}
		// Wasted speculation: re-account the DRAM read it issued as pure
		// overhead. When the free-prefetch buffer served its first line
		// it counted no DataReads, so there is none to take back.
		if c.stats.DataReads > reads {
			c.stats.SpeculationMiss++
			c.stats.DataReads--
		}
		attr.Hidden(obs.CompSpecMiss, q+srv)
	}
	if isExc {
		attr.Exposed(mdComp, mdDone-now)
		done, q, srv := c.port.Read(mdDone, c.store.Span(p, p.ExcOffset(slot), memctl.LineBytes)...)
		attr.ExposedDRAM(q, srv)
		attr.End(done)
		return memctl.Result{Done: done}
	}
	if tb == 0 {
		// Target 0 with a non-zero actual cannot happen: target-0 pages
		// hold only zero lines or exceptions.
		panic("lcp: non-exception line in a zero-target page")
	}
	attr.Exposed(mdComp, mdDone-now)
	done, q, srv := c.port.Read(mdDone, c.store.Span(p, p.LineOffset(line), tb)...)
	attr.ExposedDRAM(q, srv)
	attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	attr.End(done + c.cfg.DecompressLatency)
	return memctl.Result{Done: done + c.cfg.DecompressLatency}
}

// WriteLine implements memctl.Controller.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	if len(data) != memctl.LineBytes {
		panic(fmt.Sprintf("lcp: WriteLine with %d bytes", len(data)))
	}
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	c.stats.DemandWrites++
	// Writes are posted: every Exposed charge below demotes to hidden;
	// only the page-fault penalty stays critical (ExposedCritical).
	attr := c.port.Attr()
	attr.Begin(now, page, true)
	attr.Posted()

	l, mdDone, miss := c.lookupMetadata(now, page)
	mdComp := obs.CompMDCacheHit
	if miss {
		mdComp = obs.CompMDFetch
	}
	attr.Exposed(mdComp, mdDone-now)
	p := &c.pages[page]
	if !p.Valid {
		p.Valid = true
		p.Zero = true
		c.validPages++
		l.Dirty = true
	}
	newCode := c.compressCode(lineAddr, data)
	size := uint8(c.cfg.Bins.SizeOf(int(newCode)))

	if p.Zero {
		if size == 0 {
			c.stats.ZeroLineOps++
			attr.End(now)
			return memctl.Result{Done: now}
		}
		// Zero page materializes with the written line's size as its
		// target (no exceptions yet).
		p.Zero = false
		p.Target = size
		p.Sizes = [metadata.LinesPerPage]uint8{}
		p.Sizes[line] = size
		c.store.Place(p, SizeFor(p.Bytes()))
		c.port.Write(mdDone, c.store.Span(p, p.LineOffset(line), int(size))...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}

	old := p.Sizes[line]
	p.Sizes[line] = size
	if size < old {
		c.stats.LineUnderflows++
		c.tr.Emit(now, obs.EvLineUnderflow, page, uint64(newCode))
	}

	if slot, ok := p.ExcSlot(line); ok {
		// Exception slots hold a full line; they never overflow. LCP
		// does not repatriate lines that shrink (no repacking).
		c.port.Write(mdDone, c.store.Span(p, p.ExcOffset(slot), memctl.LineBytes)...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}
	if size <= p.Target {
		if size == 0 {
			c.stats.ZeroLineOps++
			l.Dirty = true
			attr.End(now)
			return memctl.Result{Done: now}
		}
		c.port.Write(mdDone, c.store.Span(p, p.LineOffset(line), int(size))...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}

	// Overflow: the line no longer fits the target.
	c.stats.LineOverflows++
	c.tr.Emit(now, obs.EvLineOverflow, page, uint64(line))
	if slot, ok := p.AddException(line); ok {
		c.stats.IRPlacements++
		c.tr.Emit(now, obs.EvIRPlacement, page, uint64(line))
		c.port.Write(mdDone, c.store.Span(p, p.ExcOffset(slot), memctl.LineBytes)...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}

	// Page overflow: OS-aware LCP takes a page fault; the OS allocates
	// a bigger (possibly retargeted) page and copies the data.
	done := c.pageFaultOverflow(now, p, page, line)
	l.Dirty = true
	attr.End(done)
	return memctl.Result{Done: done}
}

// pageFaultOverflow relocates the page with a freshly chosen target,
// charging the OS fault penalty plus the copy traffic.
func (c *Controller) pageFaultOverflow(now uint64, p *Page, page uint64, line int) uint64 {
	c.stats.PageOverflows++
	c.stats.PageFaults++
	c.tr.Emit(now, obs.EvPageOverflow, page, uint64(line))
	c.tr.Emit(now, obs.EvPageFault, page, uint64(line))

	// Read every non-zero line from the old layout, then write them
	// all to a freshly packed one.
	var moves uint64
	for ln, size := range p.Sizes {
		if size == 0 || ln == line {
			continue
		}
		c.port.Hidden(now, c.store.Line(p, p.Offset(ln)), false, obs.CompOverflow)
		moves++
	}
	p.Pack(c.cfg.Bins)
	c.store.Relocate(p, SizeFor(p.Bytes()))
	for ln, size := range p.Sizes {
		if size == 0 {
			continue
		}
		c.port.Hidden(now, c.store.Line(p, p.Offset(ln)), true, obs.CompOverflow)
		moves++
	}
	c.stats.OverflowAccesses += moves
	// The OS fault penalty is the one write-path latency LCP exposes;
	// it must survive the posted-write demotion.
	c.port.Attr().ExposedCritical(obs.CompOverflow, c.cfg.PageFaultPenalty)
	return now + c.cfg.PageFaultPenalty
}

// InstallPage implements memctl.Controller.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	c.checkPage(page)
	if len(lines) != metadata.LinesPerPage {
		panic(fmt.Sprintf("lcp: InstallPage with %d lines", len(lines)))
	}
	p := &c.pages[page]
	if p.Valid {
		panic(fmt.Sprintf("lcp: InstallPage of already-valid page %d", page))
	}
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	allZero := true
	for i, ln := range lines {
		code := c.compressCode(page*metadata.LinesPerPage+uint64(i), ln)
		p.Sizes[i] = uint8(c.cfg.Bins.SizeOf(int(code)))
		allZero = allZero && code == 0
	}
	p.Valid = true
	c.validPages++
	if allZero {
		p.Zero = true
		return
	}
	p.Pack(c.cfg.Bins)
	c.store.Place(p, SizeFor(p.Bytes()))
}

// Discard drops a page (OS reclaimed it). The page of an in-flight
// access is pinned and skipped.
func (c *Controller) Discard(page uint64) {
	c.checkPage(page)
	if c.hasPinned && page == c.pinned {
		return
	}
	p := &c.pages[page]
	if !p.Valid {
		return
	}
	if !p.Zero {
		c.store.Free(p)
	}
	*p = Page{}
	c.mdc.Drop(page)
	c.validPages--
}

// FreeMachineChunks reports free allocator capacity in chunks.
func (c *Controller) FreeMachineChunks() int { return c.store.FreeMachineChunks() }
