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

// Controller is the LCP baseline memory controller. It is also the LCP
// page controller dmc's hot tier builds on: the demand steps below
// (BeginRead/BeginWrite, Lookup, ReadSlot, WriteSlot, Install) are
// exported so a tiered controller runs exactly LCP's hot-page path and
// adds only what LCP lacks.
type Controller struct {
	cfg   Config
	port  memctl.Port      // DRAM, free-prefetch buffer and attribution ledger
	sizer memctl.LineSizer // the source's memoized size path (nil when unsupported)

	pages []Page
	store *Store
	mdc   *metadata.Cache

	stats      memctl.Stats
	validPages int64

	// acc is the demand access in flight; pinned is its page (or the
	// page being installed) while hasPinned holds.
	acc       Access
	pinned    uint64
	hasPinned bool
	// name is the backend's name, which also prefixes its panics.
	name string

	// tr records controller events (nil disables tracing). Every LCP
	// event site runs inside the demand access, so events carry the
	// access cycle directly.
	tr *obs.Tracer
}

var _ memctl.Controller = (*Controller)(nil)

// New builds an LCP controller over mem, named lcp or lcp-align by its
// bins.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	name := "lcp"
	if cfg.Bins.Name() == compress.CompressoBins.Name() {
		name = "lcp-align"
	}
	return NewNamed(name, cfg, mem, source)
}

// NewNamed builds an LCP page controller over mem that reports, and
// panics, under name. Lines are sized through source's memoized size
// path when it has one (memctl.LineSizer), else from their bytes.
func NewNamed(name string, cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 {
		panic(name + ": OSPAPages must be positive")
	}
	// Half entries for uncompressed pages are Compresso's §IV-B5
	// optimization; LCP caches whole metadata entries (Pekhimenko's
	// thesis), so the flag would change nothing here.
	if cfg.MetadataCache.HalfEntry {
		panic(name + ": MetadataCache.HalfEntry is Compresso's §IV-B5 optimization; LCP caches whole entries")
	}
	sizer, _ := source.(memctl.LineSizer)
	c := &Controller{
		cfg:   cfg,
		sizer: sizer,
		pages: make([]Page, cfg.OSPAPages),
		store: NewStore(name, cfg.OSPAPages, cfg.MachineBytes, cfg.OnMemoryPressure),
		mdc:   metadata.NewCache(cfg.MetadataCache),
		name:  name,
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
// than inside lookup: under speculation the metadata fetch may end up
// off the critical path, and only the caller knows.
func (c *Controller) SetAttribution(a *obs.Attribution) { c.port.SetAttribution(a) }

// MetadataCacheStats returns the metadata cache's counters.
func (c *Controller) MetadataCacheStats() metadata.CacheStats { return c.mdc.Stats() }

// CompressedBytes implements memctl.Controller.
func (c *Controller) CompressedBytes() int64 { return c.store.UsedBytes() }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

// FreeMachineChunks reports free allocator capacity in chunks.
func (c *Controller) FreeMachineChunks() int { return c.store.FreeMachineChunks() }

// The plumbing a tiered controller shares: its DRAM port, counters,
// tracer, block store and page states.

// Port returns the controller's DRAM port.
func (c *Controller) Port() *memctl.Port { return &c.port }

// Counters returns the controller's live Stats.
func (c *Controller) Counters() *memctl.Stats { return &c.stats }

// Tracer returns the installed event tracer (nil when tracing is off;
// Emit on nil records nothing).
func (c *Controller) Tracer() *obs.Tracer { return c.tr }

// Store returns the controller's buddy-block page store.
func (c *Controller) Store() *Store { return c.store }

// Page returns OSPA page's state.
func (c *Controller) Page(page uint64) *Page { return &c.pages[page] }

func (c *Controller) checkPage(page uint64) {
	if page >= uint64(len(c.pages)) {
		panic(fmt.Sprintf("%s: OSPA page %d beyond advertised %d", c.name, page, len(c.pages)))
	}
}

// LineCode returns the bin code of data, the source's live content at
// lineAddr (demand writebacks, InstallPage, a tiered controller's
// repacking): when the source exposes a memoized size path, sizing
// skips the compressor.
func (c *Controller) LineCode(lineAddr uint64, data []byte) uint8 {
	if c.sizer != nil {
		return uint8(c.cfg.Bins.Code(c.sizer.SizeLine(c.cfg.Codec, lineAddr)))
	}
	return uint8(c.cfg.Bins.Code(compress.SizeOnly(c.cfg.Codec, data)))
}

// --- demand steps ------------------------------------------------------------

// Access is the demand access in flight (a controller serves one at a
// time). BeginRead or BeginWrite opens it and pins its page until
// Unpin; Lookup resolves the page's metadata; ReadSlot or WriteSlot
// (or the embedding controller's own tier) closes the ledger.
type Access struct {
	Now  uint64
	Page uint64
	Line int

	// Set by Lookup: the page's state, its metadata-cache line, the
	// cycle the metadata is ready and the component its latency is
	// charged to (CompMDCacheHit or CompMDFetch).
	P      *Page
	MD     *metadata.Line
	MDDone uint64
	MDComp obs.Component

	code uint8 // a write's bin code
}

// BeginRead opens a demand read of lineAddr at now.
func (c *Controller) BeginRead(now, lineAddr uint64) *Access {
	a := c.begin(now, lineAddr)
	c.stats.DemandReads++
	c.port.Attr().Begin(now, a.Page, false)
	return a
}

// BeginWrite opens a demand write of data to lineAddr at now and sizes
// the line. Writes are posted: every Exposed charge of the access
// demotes to hidden; only LCP's page-fault penalty stays critical
// (ExposedCritical).
func (c *Controller) BeginWrite(now, lineAddr uint64, data []byte) *Access {
	a := c.begin(now, lineAddr)
	if len(data) != memctl.LineBytes {
		panic(fmt.Sprintf("%s: WriteLine with %d bytes", c.name, len(data)))
	}
	c.stats.DemandWrites++
	attr := c.port.Attr()
	attr.Begin(now, a.Page, true)
	attr.Posted()
	a.code = c.LineCode(lineAddr, data)
	return a
}

func (c *Controller) begin(now, lineAddr uint64) *Access {
	page := lineAddr / metadata.LinesPerPage
	c.checkPage(page)
	c.pinned, c.hasPinned = page, true
	c.acc = Access{Now: now, Page: page, Line: int(lineAddr % metadata.LinesPerPage)}
	return &c.acc
}

// Unpin releases the page of the access in flight: Discard skips a
// pinned page.
func (c *Controller) Unpin() { c.hasPinned = false }

// Lookup resolves the access's metadata and charges its latency on the
// critical path.
func (c *Controller) Lookup(a *Access) {
	c.lookup(a)
	c.port.Attr().Exposed(a.MDComp, a.MDDone-a.Now)
}

// lookup resolves the access's metadata through the metadata cache, or
// fetches it on a miss (writing back dirty victims), charging nothing:
// LCP's speculation decides whether the fetch is exposed. A page's
// first touch makes it a valid zero page.
func (c *Controller) lookup(a *Access) {
	if l, ok := c.mdc.Lookup(a.Page); ok {
		a.MD, a.MDDone, a.MDComp = l, a.Now+c.cfg.MetadataHitLatency, obs.CompMDCacheHit
	} else {
		a.MDDone, a.MDComp = c.port.MetadataRead(a.Now, a.Page), obs.CompMDFetch
		l, evicted := c.mdc.Insert(a.Page, false)
		for _, ev := range evicted {
			if ev.Dirty {
				c.port.MetadataWriteback(a.Now, ev.Page)
			}
			// No repacking in LCP (§IV-B4 is novel to Compresso).
		}
		a.MD = l
	}
	a.P = &c.pages[a.Page]
	if !a.P.Valid {
		a.P.Valid = true
		a.P.Zero = true
		c.validPages++
		a.MD.Dirty = true
	}
}

// End closes the access's ledger at done.
func (c *Controller) End(done uint64) memctl.Result {
	c.port.Attr().End(done)
	return memctl.Result{Done: done}
}

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	a := c.BeginRead(now, lineAddr)
	defer c.Unpin()
	c.lookup(a)
	p := a.P
	attr := c.port.Attr()

	// LCP's speculative access: on a metadata miss the controller
	// (whose TLB knows the page's target, being OS-aware) issues the
	// non-exception-location access in parallel with the metadata
	// fetch. Correct speculation hides the metadata latency; an
	// exception line wastes the access.
	tb := int(p.Target)
	if a.MDComp == obs.CompMDFetch && c.cfg.Speculate && tb > 0 && !p.Zero && p.Sizes[a.Line] != 0 {
		reads := c.stats.DataReads
		specDone, q, srv := c.port.Read(now, c.store.Span(p, p.LineOffset(a.Line), tb)...)
		if _, isExc := p.ExcSlot(a.Line); !isExc {
			done := specDone
			if a.MDDone > done {
				// The metadata fetch dominates: the correct speculative
				// read completed entirely under it.
				done = a.MDDone
				attr.Exposed(obs.CompMDFetch, a.MDDone-now)
				attr.HiddenDRAM(q, srv)
			} else {
				// The data read dominates: the metadata fetch is hidden.
				attr.Hidden(obs.CompMDFetch, a.MDDone-now)
				attr.ExposedDRAM(q, srv)
			}
			attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
			return c.End(done + c.cfg.DecompressLatency)
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
	attr.Exposed(a.MDComp, a.MDDone-now)
	return c.ReadSlot(a)
}

// ReadSlot finishes a read of a hot (LCP-packed) page once its
// metadata is ready: a zero line costs nothing more, an exception is
// its uncompressed slot, and any other line is its target-sized slot
// plus decompression.
func (c *Controller) ReadSlot(a *Access) memctl.Result {
	p := a.P
	if p.Zero || p.Sizes[a.Line] == 0 {
		c.stats.ZeroLineOps++
		return c.End(a.MDDone)
	}
	off, size, decompress := p.LineOffset(a.Line), int(p.Target), c.cfg.DecompressLatency
	if slot, ok := p.ExcSlot(a.Line); ok {
		off, size, decompress = p.ExcOffset(slot), memctl.LineBytes, 0
	} else if size == 0 {
		// Target 0 with a non-zero actual cannot happen: target-0 pages
		// hold only zero lines or exceptions.
		panic(c.name + ": non-exception line in a zero-target page")
	}
	done, q, srv := c.port.Read(a.MDDone, c.store.Span(p, off, size)...)
	attr := c.port.Attr()
	attr.ExposedDRAM(q, srv)
	attr.Exposed(obs.CompDecompress, decompress)
	return c.End(done + decompress)
}

// WriteLine implements memctl.Controller.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	a := c.BeginWrite(now, lineAddr, data)
	defer c.Unpin()
	c.Lookup(a)
	return c.WriteSlot(a, c.pageFault)
}

// WriteSlot finishes a write to a hot page: a zero page materializes
// with the written line's size as its target, and a line that outgrows
// the target moves to the exception region while the page's block has
// room. When it has none, overflow handles the page overflow and
// returns the write's completion cycle: LCP's OS page fault, or dmc's
// in-place rewrite.
func (c *Controller) WriteSlot(a *Access, overflow func(*Access) uint64) memctl.Result {
	p := a.P
	size := uint8(c.cfg.Bins.SizeOf(int(a.code)))
	if p.Zero {
		if size == 0 {
			c.stats.ZeroLineOps++
			return c.End(a.Now)
		}
		// The zero page materializes with the written line's size as
		// its target (no exceptions yet).
		p.Zero = false
		p.Target = size
		p.Sizes = [metadata.LinesPerPage]uint8{}
		p.Sizes[a.Line] = size
		c.store.Place(p, SizeFor(p.Bytes()))
		return c.write(a, p.LineOffset(a.Line), int(size))
	}
	c.Resize(a)
	if slot, ok := p.ExcSlot(a.Line); ok {
		// Exception slots hold a full line; they never overflow. LCP
		// does not repatriate lines that shrink (no repacking).
		return c.write(a, p.ExcOffset(slot), memctl.LineBytes)
	}
	if size <= p.Target {
		if size == 0 {
			c.stats.ZeroLineOps++
		}
		return c.write(a, p.LineOffset(a.Line), int(size))
	}

	// Overflow: the line no longer fits the target.
	c.stats.LineOverflows++
	c.tr.Emit(a.Now, obs.EvLineOverflow, a.Page, uint64(a.Line))
	if slot, ok := p.AddException(a.Line); ok {
		c.stats.IRPlacements++
		c.tr.Emit(a.Now, obs.EvIRPlacement, a.Page, uint64(a.Line))
		return c.write(a, p.ExcOffset(slot), memctl.LineBytes)
	}
	c.stats.PageOverflows++
	c.tr.Emit(a.Now, obs.EvPageOverflow, a.Page, uint64(a.Line))
	done := overflow(a)
	a.MD.Dirty = true
	return c.End(done)
}

// write issues the posted write of bytes [off, off+size) of the
// access's page (nothing for an empty span) and closes the access.
func (c *Controller) write(a *Access, off, size int) memctl.Result {
	c.port.Write(a.MDDone, c.store.Span(a.P, off, size)...)
	a.MD.Dirty = true
	return c.End(a.Now)
}

// Resize records the written line's new size in its page, counting an
// underflow when the line shrank.
func (c *Controller) Resize(a *Access) {
	size := uint8(c.cfg.Bins.SizeOf(int(a.code)))
	if size < a.P.Sizes[a.Line] {
		c.stats.LineUnderflows++
		c.tr.Emit(a.Now, obs.EvLineUnderflow, a.Page, uint64(a.code))
	}
	a.P.Sizes[a.Line] = size
}

// pageFault is LCP's page overflow: OS-aware LCP takes a page fault,
// and the OS relocates the page with a freshly chosen target, charging
// the fault penalty plus the copy traffic.
func (c *Controller) pageFault(a *Access) uint64 {
	p := a.P
	c.stats.PageFaults++
	c.tr.Emit(a.Now, obs.EvPageFault, a.Page, uint64(a.Line))

	// Read every non-zero line from the old layout, then write them
	// all to a freshly packed one.
	var moves uint64
	for ln, size := range p.Sizes {
		if size == 0 || ln == a.Line {
			continue
		}
		c.port.Hidden(a.Now, c.store.Line(p, p.Offset(ln)), false, obs.CompOverflow)
		moves++
	}
	p.Pack(c.cfg.Bins)
	c.store.Relocate(p, SizeFor(p.Bytes()))
	for ln, size := range p.Sizes {
		if size == 0 {
			continue
		}
		c.port.Hidden(a.Now, c.store.Line(p, p.Offset(ln)), true, obs.CompOverflow)
		moves++
	}
	c.stats.OverflowAccesses += moves
	// The OS fault penalty is the one write-path latency LCP exposes;
	// it must survive the posted-write demotion.
	c.port.Attr().ExposedCritical(obs.CompOverflow, c.cfg.PageFaultPenalty)
	return a.Now + c.cfg.PageFaultPenalty
}

// InstallPage implements memctl.Controller.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	p := c.Install(page, lines)
	defer c.Unpin()
	if !p.Zero {
		p.Pack(c.cfg.Bins)
		c.store.Place(p, SizeFor(p.Bytes()))
	}
}

// Install sizes an installed page's lines and makes it valid, a zero
// page when every line is zero, pinning it until Unpin. The caller
// lays out and places a non-zero page.
func (c *Controller) Install(page uint64, lines [][]byte) *Page {
	c.checkPage(page)
	if len(lines) != metadata.LinesPerPage {
		panic(fmt.Sprintf("%s: InstallPage with %d lines", c.name, len(lines)))
	}
	p := &c.pages[page]
	if p.Valid {
		panic(fmt.Sprintf("%s: InstallPage of already-valid page %d", c.name, page))
	}
	c.pinned, c.hasPinned = page, true
	allZero := true
	for i, ln := range lines {
		code := c.LineCode(page*metadata.LinesPerPage+uint64(i), ln)
		p.Sizes[i] = uint8(c.cfg.Bins.SizeOf(int(code)))
		allZero = allZero && code == 0
	}
	p.Valid = true
	p.Zero = allZero
	c.validPages++
	return p
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
