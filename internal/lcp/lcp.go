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
package lcp

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/mpa"
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

// lcpPage is the controller state of one OSPA page.
type lcpPage struct {
	valid bool
	zero  bool
	// target is the bin code all non-exception lines compress to.
	target uint8
	base   uint32 // buddy block base chunk
	chunks int    // 1, 2, 4 or 8
	// exc maps exception-region slots to line indices (in slot order).
	exc []int
	// actual shadows each line's current compressed bin.
	actual [metadata.LinesPerPage]uint8
}

func (p *lcpPage) excSlot(line int) (int, bool) {
	for i, l := range p.exc {
		if l == line {
			return i, true
		}
	}
	return 0, false
}

// Controller is the LCP baseline memory controller.
type Controller struct {
	cfg    Config
	mem    *dram.Memory
	source memctl.LineSource
	sizer  memctl.LineSizer // source's memoized size path (nil when unsupported)

	pages []lcpPage
	buddy *mpa.BuddyAllocator
	mdc   *metadata.Cache

	stats      memctl.Stats
	validPages int64

	prefetch      memctl.LineFIFO
	chunkBaseLine uint64
	pinned        uint64
	hasPinned     bool
	lineBuf       [memctl.LineBytes]byte
	name          string

	// tr records controller events (nil disables tracing). Every LCP
	// event site runs inside the demand access, so events carry the
	// access cycle directly.
	tr *obs.Tracer
	// attr is the cycle-accounting attribution ledger (nil disables).
	attr *obs.Attribution
}

var _ memctl.Controller = (*Controller)(nil)

// New builds an LCP controller over mem.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 {
		panic("lcp: OSPAPages must be positive")
	}
	mdBytes := int64(cfg.OSPAPages) * metadata.EntrySize
	dataChunks := int((cfg.MachineBytes - mdBytes) / metadata.ChunkSize)
	if dataChunks <= 8 {
		panic("lcp: no machine memory left for data after metadata")
	}
	name := "lcp"
	if cfg.Bins.Name() == compress.CompressoBins.Name() {
		name = "lcp-align"
	}
	sizer, _ := source.(memctl.LineSizer)
	return &Controller{
		cfg:           cfg,
		mem:           mem,
		source:        source,
		sizer:         sizer,
		pages:         make([]lcpPage, cfg.OSPAPages),
		buddy:         mpa.NewBuddyAllocator(dataChunks-dataChunks%8, 3),
		mdc:           metadata.NewCache(cfg.MetadataCache),
		chunkBaseLine: uint64(cfg.OSPAPages),
		name:          name,
		prefetch:      memctl.NewLineFIFO(cfg.PrefetchBuffer),
	}
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
func (c *Controller) SetAttribution(a *obs.Attribution) { c.attr = a }

// MetadataCacheStats returns the metadata cache's counters.
func (c *Controller) MetadataCacheStats() metadata.CacheStats { return c.mdc.Stats() }

// CompressedBytes implements memctl.Controller.
func (c *Controller) CompressedBytes() int64 { return c.buddy.UsedBytes() }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

func (c *Controller) checkPage(page uint64) {
	if page >= uint64(len(c.pages)) {
		panic(fmt.Sprintf("lcp: OSPA page %d beyond advertised %d", page, len(c.pages)))
	}
}

func (c *Controller) compressCode(data []byte) uint8 {
	n := compress.SizeOnly(c.cfg.Codec, data)
	return uint8(c.cfg.Bins.Code(n))
}

// compressCodeAt is compressCode for data that is the source's live
// content at lineAddr (demand writebacks, InstallPage): when the
// source exposes a memoized size path, sizing skips the compressor.
func (c *Controller) compressCodeAt(lineAddr uint64, data []byte) uint8 {
	if c.sizer != nil {
		return uint8(c.cfg.Bins.Code(c.sizer.SizeLine(c.cfg.Codec, lineAddr)))
	}
	return c.compressCode(data)
}

// --- layout ------------------------------------------------------------

func (c *Controller) mdMachineLine(page uint64) uint64 { return page }

func (c *Controller) dataMachineLine(p *lcpPage, off int) uint64 {
	chunk := p.base + uint32(off/metadata.ChunkSize)
	return c.chunkBaseLine + uint64(chunk)*8 + uint64(off%metadata.ChunkSize)/memctl.LineBytes
}

func (c *Controller) targetBytes(p *lcpPage) int { return c.cfg.Bins.SizeOf(int(p.target)) }

// lineOffset returns a non-exception line's offset: the whole point of
// LCP-packing is that this is a single multiply.
func (c *Controller) lineOffset(p *lcpPage, line int) int { return line * c.targetBytes(p) }

// excOffset returns the offset of exception slot e.
func (c *Controller) excOffset(p *lcpPage, e int) int {
	return metadata.LinesPerPage*c.targetBytes(p) + e*memctl.LineBytes
}

// pageBytes returns the bytes the current layout occupies.
func (c *Controller) pageBytes(p *lcpPage) int {
	return metadata.LinesPerPage*c.targetBytes(p) + len(p.exc)*memctl.LineBytes
}

// excReserve is the exception-region headroom (in bytes) included when
// sizing a page: LCP provisions room for a few exceptions up front so
// that the first overflow is not immediately a page fault. Without it,
// aligned targets (8/32/64 B) multiply to exactly the page sizes and
// every overflow faults.
const excReserve = 2 * memctl.LineBytes

// allowedChunks rounds a byte requirement up to the nearest LCP page
// size (512 B / 1 K / 2 K / 4 K).
func allowedChunks(bytes int) int {
	need := (bytes + metadata.ChunkSize - 1) / metadata.ChunkSize
	for _, s := range []int{1, 2, 4, 8} {
		if s >= need {
			return s
		}
	}
	panic(fmt.Sprintf("lcp: %d bytes exceed 4 KB page", bytes))
}

// sizeFor picks the page size for a layout of totalBytes plus the
// exception reserve (capped at the maximum page).
func sizeFor(totalBytes int) int {
	t := totalBytes + excReserve
	if t > memctl.PageSize {
		t = memctl.PageSize
	}
	if totalBytes > memctl.PageSize {
		t = totalBytes // let allowedChunks panic with the real number
	}
	return allowedChunks(t)
}

// chooseTarget picks the target bin minimizing the page footprint for
// the given actual line sizes (the LCP paper's compression step).
func (c *Controller) chooseTarget(actual *[metadata.LinesPerPage]uint8) (target uint8, excCount int) {
	bestBytes := 1 << 30
	sizes := c.cfg.Bins.Sizes()
	for code := range sizes {
		t := sizes[code]
		exc := 0
		for _, a := range actual {
			if c.cfg.Bins.SizeOf(int(a)) > t {
				exc++
			}
		}
		total := metadata.LinesPerPage*t + exc*memctl.LineBytes
		if total < bestBytes {
			bestBytes = total
			target = uint8(code)
			excCount = exc
		}
	}
	return target, excCount
}

// --- allocation ----------------------------------------------------------

func (c *Controller) allocBlock(chunks int) uint32 {
	for {
		base, ok := c.buddy.Alloc(chunks * metadata.ChunkSize)
		if ok {
			return base
		}
		if c.cfg.OnMemoryPressure == nil || !c.cfg.OnMemoryPressure(chunks) {
			panic("lcp: out of machine memory and no pressure handler")
		}
	}
}

// --- metadata path ---------------------------------------------------------

// lookupMetadata returns (cache line, metadata-ready cycle, wasMiss).
func (c *Controller) lookupMetadata(now uint64, page uint64) (*metadata.Line, uint64, bool) {
	if l, ok := c.mdc.Lookup(page); ok {
		return l, now + c.cfg.MetadataHitLatency, false
	}
	c.stats.MetadataReads++
	done := c.mem.Access(now, c.mdMachineLine(page), false)
	l, evicted := c.mdc.Insert(page, false)
	for _, ev := range evicted {
		if ev.Dirty {
			c.stats.MetadataWrites++
			c.mem.Access(now, c.mdMachineLine(ev.Page), true)
			queue, service := c.mem.LastBreakdown()
			c.attr.Hidden(obs.CompMDFetch, queue+service)
		}
		// No repacking in LCP (§IV-B4 is novel to Compresso).
	}
	return l, done, true
}

// --- data helpers ----------------------------------------------------------

func (c *Controller) fetchData(start uint64, machineLine uint64, extra bool) uint64 {
	if c.prefetch.Contains(machineLine) {
		c.stats.PrefetchHits++
		return start
	}
	done := c.mem.Access(start, machineLine, false)
	if extra {
		c.stats.SplitAccesses++
	} else {
		c.stats.DataReads++
	}
	c.prefetch.Push(machineLine)
	return done
}

func (c *Controller) writeSpan(now uint64, p *lcpPage, off, size int) {
	if size <= 0 {
		return
	}
	c.mem.Access(now, c.dataMachineLine(p, off), true)
	queue, service := c.mem.LastBreakdown()
	c.attr.Hidden(obs.CompDRAMQueue, queue)
	c.attr.Hidden(obs.CompDRAMService, service)
	c.stats.DataWrites++
	if compress.SplitAccess(off, size) {
		c.mem.Access(now, c.dataMachineLine(p, off+size-1), true)
		c.stats.SplitAccesses++
		queue, service = c.mem.LastBreakdown()
		c.attr.Hidden(obs.CompSplit, queue+service)
	}
}

// readSpan reads [off, off+size) and additionally returns the
// dominant access's DRAM breakdown (zero on a prefetch hit, whose
// stale breakdown must not be charged); the non-dominant half of a
// split pair is charged hidden here. The caller decides whether the
// dominant breakdown is exposed (demand segment) or hidden (the
// speculative read that lost to the metadata fetch).
func (c *Controller) readSpan(start uint64, p *lcpPage, off, size int) (done, queue, service uint64) {
	done = c.fetchData(start, c.dataMachineLine(p, off), false)
	if done > start {
		queue, service = c.mem.LastBreakdown()
	}
	if compress.SplitAccess(off, size) {
		d2 := c.fetchData(start, c.dataMachineLine(p, off+size-1), true)
		var q2, s2 uint64
		if d2 > start {
			q2, s2 = c.mem.LastBreakdown()
		}
		if d2 > done {
			c.attr.Hidden(obs.CompSplit, queue+service)
			done, queue, service = d2, q2, s2
		} else {
			c.attr.Hidden(obs.CompSplit, q2+s2)
		}
	}
	return done, queue, service
}

// --- demand path -------------------------------------------------------------

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	c.stats.DemandReads++
	c.attr.Begin(now, page, false)

	l, mdDone, miss := c.lookupMetadata(now, page)
	mdComp := obs.CompMDCacheHit
	if miss {
		mdComp = obs.CompMDFetch
	}
	p := &c.pages[page]
	if !p.valid {
		p.valid = true
		p.zero = true
		c.validPages++
		l.Dirty = true
	}
	if p.zero || p.actual[line] == 0 {
		c.stats.ZeroLineOps++
		c.attr.Exposed(mdComp, mdDone-now)
		c.attr.End(mdDone)
		return memctl.Result{Done: mdDone}
	}

	// LCP's speculative access: on a metadata miss the controller
	// (whose TLB knows the page's target, being OS-aware) issues the
	// non-exception-location access in parallel with the metadata
	// fetch. Correct speculation hides the metadata latency; an
	// exception line wastes the access.
	slot, isExc := p.excSlot(line)
	tb := c.targetBytes(p)
	if miss && c.cfg.Speculate && tb > 0 {
		specDone, q, srv := c.readSpan(now, p, c.lineOffset(p, line), tb)
		if !isExc {
			done := specDone
			if mdDone > done {
				// The metadata fetch dominates: the correct speculative
				// read completed entirely under it.
				done = mdDone
				c.attr.Exposed(obs.CompMDFetch, mdDone-now)
				c.attr.Hidden(obs.CompDRAMQueue, q)
				c.attr.Hidden(obs.CompDRAMService, srv)
			} else {
				// The data read dominates: the metadata fetch is hidden.
				c.attr.Hidden(obs.CompMDFetch, mdDone-now)
				c.attr.ExposedDRAM(q, srv)
			}
			c.attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
			c.attr.End(done + c.cfg.DecompressLatency)
			return memctl.Result{Done: done + c.cfg.DecompressLatency}
		}
		// Wasted speculation; re-account the access as pure overhead.
		c.stats.SpeculationMiss++
		c.stats.DataReads--
		c.attr.Hidden(obs.CompSpecMiss, q+srv)
	}
	if isExc {
		c.attr.Exposed(mdComp, mdDone-now)
		done, q, srv := c.readSpan(mdDone, p, c.excOffset(p, slot), memctl.LineBytes)
		c.attr.ExposedDRAM(q, srv)
		c.attr.End(done)
		return memctl.Result{Done: done}
	}
	if tb == 0 {
		// Target 0 with a non-zero actual cannot happen: target-0 pages
		// hold only zero lines or exceptions.
		panic("lcp: non-exception line in a zero-target page")
	}
	c.attr.Exposed(mdComp, mdDone-now)
	done, q, srv := c.readSpan(mdDone, p, c.lineOffset(p, line), tb)
	c.attr.ExposedDRAM(q, srv)
	c.attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	c.attr.End(done + c.cfg.DecompressLatency)
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
	c.attr.Begin(now, page, true)
	c.attr.Posted()

	l, mdDone, miss := c.lookupMetadata(now, page)
	mdComp := obs.CompMDCacheHit
	if miss {
		mdComp = obs.CompMDFetch
	}
	c.attr.Exposed(mdComp, mdDone-now)
	p := &c.pages[page]
	if !p.valid {
		p.valid = true
		p.zero = true
		c.validPages++
		l.Dirty = true
	}
	newCode := c.compressCodeAt(lineAddr, data)

	if p.zero {
		if newCode == 0 {
			c.stats.ZeroLineOps++
			c.attr.End(now)
			return memctl.Result{Done: now}
		}
		// Zero page materializes with the written line's size as its
		// target (no exceptions yet).
		p.zero = false
		p.target = newCode
		p.actual = [metadata.LinesPerPage]uint8{}
		p.actual[line] = newCode
		p.exc = nil
		p.chunks = sizeFor(c.pageBytes(p))
		p.base = c.allocBlock(p.chunks)
		c.writeSpan(mdDone, p, c.lineOffset(p, line), c.targetBytes(p))
		l.Dirty = true
		c.attr.End(now)
		return memctl.Result{Done: now}
	}

	old := p.actual[line]
	p.actual[line] = newCode
	if newCode < old {
		c.stats.LineUnderflows++
		c.tr.Emit(now, obs.EvLineUnderflow, page, uint64(newCode))
	}

	if slot, ok := p.excSlot(line); ok {
		// Exception slots hold a full line; they never overflow. LCP
		// does not repatriate lines that shrink (no repacking).
		c.writeSpan(mdDone, p, c.excOffset(p, slot), memctl.LineBytes)
		l.Dirty = true
		c.attr.End(now)
		return memctl.Result{Done: now}
	}
	if newCode <= p.target {
		if newCode == 0 {
			c.stats.ZeroLineOps++
			l.Dirty = true
			c.attr.End(now)
			return memctl.Result{Done: now}
		}
		c.writeSpan(mdDone, p, c.lineOffset(p, line), c.cfg.Bins.SizeOf(int(newCode)))
		l.Dirty = true
		c.attr.End(now)
		return memctl.Result{Done: now}
	}

	// Overflow: the line no longer fits the target.
	c.stats.LineOverflows++
	c.tr.Emit(now, obs.EvLineOverflow, page, uint64(line))
	if c.pageBytes(p)+memctl.LineBytes <= p.chunks*metadata.ChunkSize {
		p.exc = append(p.exc, line)
		c.stats.IRPlacements++
		c.tr.Emit(now, obs.EvIRPlacement, page, uint64(line))
		c.writeSpan(mdDone, p, c.excOffset(p, len(p.exc)-1), memctl.LineBytes)
		l.Dirty = true
		c.attr.End(now)
		return memctl.Result{Done: now}
	}

	// Page overflow: OS-aware LCP takes a page fault; the OS allocates
	// a bigger (possibly retargeted) page and copies the data.
	done := c.pageFaultOverflow(now, p, page, line)
	l.Dirty = true
	c.attr.End(done)
	return memctl.Result{Done: done}
}

// pageFaultOverflow relocates the page with a freshly chosen target,
// charging the OS fault penalty plus the copy traffic.
func (c *Controller) pageFaultOverflow(now uint64, p *lcpPage, page uint64, line int) uint64 {
	c.stats.PageOverflows++
	c.stats.PageFaults++
	c.tr.Emit(now, obs.EvPageOverflow, page, uint64(line))
	c.tr.Emit(now, obs.EvPageFault, page, uint64(line))

	// Read every non-zero line from the old layout.
	var moves uint64
	for ln := 0; ln < metadata.LinesPerPage; ln++ {
		if p.actual[ln] == 0 || ln == line {
			continue
		}
		var off int
		if slot, ok := p.excSlot(ln); ok {
			off = c.excOffset(p, slot)
		} else {
			off = c.lineOffset(p, ln)
		}
		c.mem.Access(now, c.dataMachineLine(p, off), false)
		queue, service := c.mem.LastBreakdown()
		c.attr.Hidden(obs.CompOverflow, queue+service)
		moves++
	}

	target, excCount := c.chooseTarget(&p.actual)
	newBytes := metadata.LinesPerPage*c.cfg.Bins.SizeOf(int(target)) + excCount*memctl.LineBytes
	newChunks := sizeFor(newBytes)
	oldBase := p.base
	p.base = c.allocBlock(newChunks)
	c.buddy.Free(oldBase)
	p.chunks = newChunks
	p.target = target
	p.exc = nil
	tb := c.cfg.Bins.SizeOf(int(target))
	for ln := 0; ln < metadata.LinesPerPage; ln++ {
		if p.actual[ln] == 0 {
			continue
		}
		var off int
		if c.cfg.Bins.SizeOf(int(p.actual[ln])) > tb {
			p.exc = append(p.exc, ln)
			off = c.excOffset(p, len(p.exc)-1)
		} else {
			off = c.lineOffset(p, ln)
		}
		c.mem.Access(now, c.dataMachineLine(p, off), true)
		queue, service := c.mem.LastBreakdown()
		c.attr.Hidden(obs.CompOverflow, queue+service)
		moves++
	}
	c.stats.OverflowAccesses += moves
	// The OS fault penalty is the one write-path latency LCP exposes;
	// it must survive the posted-write demotion.
	c.attr.ExposedCritical(obs.CompOverflow, c.cfg.PageFaultPenalty)
	return now + c.cfg.PageFaultPenalty
}

// InstallPage implements memctl.Controller.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	c.checkPage(page)
	if len(lines) != metadata.LinesPerPage {
		panic(fmt.Sprintf("lcp: InstallPage with %d lines", len(lines)))
	}
	p := &c.pages[page]
	if p.valid {
		panic(fmt.Sprintf("lcp: InstallPage of already-valid page %d", page))
	}
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	allZero := true
	for i, ln := range lines {
		code := c.compressCodeAt(page*metadata.LinesPerPage+uint64(i), ln)
		p.actual[i] = code
		if code != 0 {
			allZero = false
		}
	}
	p.valid = true
	c.validPages++
	if allZero {
		p.zero = true
		return
	}
	target, _ := c.chooseTarget(&p.actual)
	p.target = target
	p.exc = nil
	tb := c.cfg.Bins.SizeOf(int(target))
	for ln := 0; ln < metadata.LinesPerPage; ln++ {
		if p.actual[ln] != 0 && c.cfg.Bins.SizeOf(int(p.actual[ln])) > tb {
			p.exc = append(p.exc, ln)
		}
	}
	p.chunks = sizeFor(c.pageBytes(p))
	p.base = c.allocBlock(p.chunks)
}

// Discard drops a page (OS reclaimed it). The page of an in-flight
// access is pinned and skipped.
func (c *Controller) Discard(page uint64) {
	c.checkPage(page)
	if c.hasPinned && page == c.pinned {
		return
	}
	p := &c.pages[page]
	if !p.valid {
		return
	}
	if !p.zero {
		c.buddy.Free(p.base)
	}
	*p = lcpPage{}
	c.mdc.Drop(page)
	c.validPages--
}

// FreeMachineChunks reports free allocator capacity in chunks.
func (c *Controller) FreeMachineChunks() int {
	return int(c.buddy.FreeBytes() / metadata.ChunkSize)
}
