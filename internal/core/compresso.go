package core

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/mpa"
	"compresso/internal/obs"
)

// pageState is the controller-side state of one OSPA page: the
// architectural 64-byte metadata entry plus the simulator's exact
// per-line compressed-size shadow used for free-space tracking (the
// paper's entry carries the 12-bit FreeSpace result of this tracking;
// we model the tracking as exact — see DESIGN.md §3.2).
type pageState struct {
	meta metadata.Entry
	// actual holds the bin code each line's *current data* compresses
	// to, as opposed to meta.LineSizeCode which records the allocated
	// slot in the packed region.
	actual [metadata.LinesPerPage]uint8
	// alloc is the number of chunks currently allocated to the page
	// (authoritative for the allocator; meta.PageSizeCode mirrors it
	// for non-zero pages).
	alloc int
}

// Controller is the Compresso memory controller.
type Controller struct {
	cfg    Config
	port   memctl.Port // DRAM, free-prefetch buffer and attribution ledger
	source memctl.LineSource
	sizer  memctl.LineSizer // source's memoized size path (nil when unsupported)

	pages   []pageState
	backing []byte // packed metadata region image (bit-exact round-trip)

	mdc    *metadata.Cache
	global metadata.GlobalPredictor

	chunks *mpa.ChunkAllocator
	buddy  *mpa.BuddyAllocator

	stats      memctl.Stats
	validPages int64

	irDecay uint64 // inflation-room placements since start (predictor decay)

	// pinned is the page of the in-flight demand access: the
	// ballooning path must not reclaim it mid-operation (a real
	// controller holds the translation it is using).
	pinned    uint64
	hasPinned bool

	// inj is the fault injector (nil disables injection entirely).
	inj *faults.Injector
	// tr records controller events (nil disables tracing entirely);
	// tnow is the cycle of the in-flight demand access, the timestamp
	// every event of that access carries.
	tr   *obs.Tracer
	tnow uint64
	// corrupt marks OSPA lines whose stored compressed bits were hit
	// by an injected flip: the stored copy no longer matches the
	// authoritative LineSource until a writeback or repair replaces it.
	corrupt map[uint64]struct{}

	chunkBaseLine uint64
	lineBuf       [memctl.LineBytes]byte
	spanBuf       [2]uint64
}

var _ memctl.Controller = (*Controller)(nil)

// New builds a Compresso controller over mem, reading page contents
// from source when it must move or recompress data.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	cfg.validate()
	mdBytes := int64(cfg.OSPAPages) * metadata.EntrySize
	dataChunks := int((cfg.MachineBytes - mdBytes) / metadata.ChunkSize)
	if dataChunks <= 0 {
		panic("core: no machine memory left for data after metadata")
	}
	sizer, _ := source.(memctl.LineSizer)
	c := &Controller{
		cfg:           cfg,
		source:        source,
		sizer:         sizer,
		pages:         make([]pageState, cfg.OSPAPages),
		mdc:           metadata.NewCache(cfg.MetadataCache),
		chunkBaseLine: uint64(cfg.OSPAPages), // metadata occupies one line per page
		inj:           cfg.Faults,
	}
	c.port = memctl.NewPort(mem, &c.stats, cfg.PrefetchBuffer)
	if c.inj.Enabled() {
		c.corrupt = make(map[uint64]struct{})
	}
	if cfg.Bins.CodeBits() <= 2 {
		c.backing = make([]byte, int64(cfg.OSPAPages)*metadata.EntrySize)
	}
	switch cfg.Allocation {
	case FixedChunks:
		c.chunks = mpa.NewChunkAllocator(dataChunks)
	case VariableChunks:
		top := 1 << 3 // 4 KB blocks
		c.buddy = mpa.NewBuddyAllocator(dataChunks-dataChunks%top, 3)
	default:
		panic("core: unknown allocation kind")
	}
	return c
}

// Name implements memctl.Controller.
func (c *Controller) Name() string { return "compresso" }

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
func (c *Controller) SetAttribution(a *obs.Attribution) { c.port.SetAttribution(a) }

// GlobalPredictorValue exposes the 3-bit global predictor for tests.
func (c *Controller) GlobalPredictorValue() uint8 { return c.global.Value() }

// MetadataCacheStats returns the metadata cache's counters.
func (c *Controller) MetadataCacheStats() metadata.CacheStats { return c.mdc.Stats() }

// CompressedBytes implements memctl.Controller: data chunks in use.
func (c *Controller) CompressedBytes() int64 {
	if c.chunks != nil {
		return c.chunks.UsedBytes()
	}
	return c.buddy.UsedBytes()
}

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 {
	return c.validPages * memctl.PageSize
}

// MetadataBytes returns the metadata region size.
func (c *Controller) MetadataBytes() int64 {
	return int64(c.cfg.OSPAPages) * metadata.EntrySize
}

// PageSizeHistogramAdd reports the allocated chunk count of every
// valid page into add (for page-size distribution figures).
func (c *Controller) PageSizeHistogramAdd(add func(chunks int)) {
	for i := range c.pages {
		ps := &c.pages[i]
		if ps.meta.Valid {
			add(ps.meta.Chunks())
		}
	}
}

// --- address layout -------------------------------------------------

func (c *Controller) chunkOf(ps *pageState, idx int) uint32 {
	if c.cfg.Allocation == VariableChunks {
		return ps.meta.MPFN[0] + uint32(idx)
	}
	return ps.meta.MPFN[idx]
}

// dataMachineLine maps a byte offset within the page's allocation to a
// machine line address.
func (c *Controller) dataMachineLine(ps *pageState, off int) uint64 {
	chunk := c.chunkOf(ps, off/metadata.ChunkSize)
	return c.chunkBaseLine + uint64(chunk)*8 + uint64(off%metadata.ChunkSize)/memctl.LineBytes
}

// packedOffset returns the byte offset of line's slot in the packed
// region: the sum of the slot sizes of all preceding lines (LinePack,
// §II-C; the paper's 63-input adder circuit, one extra cycle).
func (c *Controller) packedOffset(ps *pageState, line int) int {
	off := 0
	for i := 0; i < line; i++ {
		off += c.cfg.Bins.SizeOf(int(ps.meta.LineSizeCode[i]))
	}
	return off
}

// irOffset returns the byte offset of inflation-room slot pos (slots
// grow downward from the end of the allocation).
func (c *Controller) irOffset(ps *pageState, pos int) int {
	return ps.meta.AllocatedBytes() - (pos+1)*memctl.LineBytes
}

// packedBytes is the packed-region footprint (slots including holes).
func (c *Controller) packedBytes(ps *pageState) int {
	off := 0
	for _, code := range ps.meta.LineSizeCode {
		off += c.cfg.Bins.SizeOf(int(code))
	}
	return off
}

// freshBytes is the page's footprint if repacked now: every line at
// its actual compressed size, no holes, no inflation room.
func (c *Controller) freshBytes(ps *pageState) int {
	total := 0
	for _, code := range ps.actual {
		total += c.cfg.Bins.SizeOf(int(code))
	}
	return total
}

func (c *Controller) updateFreeSpace(ps *pageState) {
	free := ps.meta.AllocatedBytes() - c.freshBytes(ps)
	if free < 0 {
		free = 0
	}
	if free > memctl.PageSize-1 {
		free = memctl.PageSize - 1
	}
	ps.meta.FreeSpace = uint16(free)
}

// allowedChunks returns the smallest permissible page size (in chunks)
// holding need chunks.
func (c *Controller) allowedChunks(need int) int {
	if need < 1 {
		need = 1
	}
	for _, s := range c.cfg.PageSizes {
		if s >= need {
			return s
		}
	}
	panic(fmt.Sprintf("core: need %d chunks > max page", need))
}

func (c *Controller) pageSizeAllowed(n int) bool {
	for _, s := range c.cfg.PageSizes {
		if s == n {
			return true
		}
	}
	return false
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// --- compression helpers ---------------------------------------------

// compressCode returns the bin code of data under the configured
// codec. Only the size matters here, so this rides the codec's
// allocation-free size-only path.
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

// sourceCode fetches the current value of (page, line) from the line
// source and returns its bin code.
func (c *Controller) sourceCode(page uint64, line int) uint8 {
	addr := page*metadata.LinesPerPage + uint64(line)
	if c.sizer != nil {
		return uint8(c.cfg.Bins.Code(c.sizer.SizeLine(c.cfg.Codec, addr)))
	}
	c.source.ReadLine(addr, c.lineBuf[:])
	return c.compressCode(c.lineBuf[:])
}

// --- allocation -------------------------------------------------------

// allocChunk gets one chunk, invoking the memory-pressure hook
// (ballooning, §V-B) until it succeeds.
func (c *Controller) allocChunk() uint32 {
	for {
		if ch, ok := c.chunks.Alloc(); ok {
			return ch
		}
		if c.cfg.OnMemoryPressure == nil || !c.cfg.OnMemoryPressure(1) {
			panic("core: out of machine memory and no pressure handler")
		}
	}
}

// resizePage changes the page's allocation to newChunks chunks,
// preserving MPFNs where possible. It does not account data movement;
// callers do.
func (c *Controller) resizePage(ps *pageState, newChunks int) {
	cur := ps.alloc
	switch c.cfg.Allocation {
	case FixedChunks:
		for cur < newChunks {
			if c.inj.Roll(faults.ChunkDrop) {
				// Torn allocation: the allocator hands out a chunk the
				// page never records. The audit's occupancy cross-check
				// finds and releases the leak.
				c.stats.InjectedFaults++
				if _, ok := c.chunks.Alloc(); !ok {
					// Exhausted memory cannot leak further.
					c.stats.InjectedFaults--
				} else {
					c.tr.Emit(c.tnow, obs.EvInjectedFault, obs.NoPage, uint64(faults.ChunkDrop))
				}
			}
			if cur > 0 && c.inj.Roll(faults.ChunkDup) {
				// Metadata-update glitch: the new slot records the
				// previous chunk pointer instead of a fresh allocation,
				// double-referencing one chunk.
				c.stats.InjectedFaults++
				c.tr.Emit(c.tnow, obs.EvInjectedFault, obs.NoPage, uint64(faults.ChunkDup))
				ps.meta.MPFN[cur] = ps.meta.MPFN[cur-1]
				cur++
				continue
			}
			ps.meta.MPFN[cur] = c.allocChunk()
			cur++
		}
		for cur > newChunks {
			cur--
			c.freeChunk(ps.meta.MPFN[cur])
			ps.meta.MPFN[cur] = 0
		}
	case VariableChunks:
		oldBase, hadOld := ps.meta.MPFN[0], cur > 0
		if newChunks > 0 {
			for {
				base, ok := c.buddy.Alloc(newChunks * metadata.ChunkSize)
				if ok {
					ps.meta.MPFN[0] = base
					break
				}
				// Free the old block first if we were growing; the data
				// has conceptually been buffered by the controller.
				if hadOld {
					c.buddy.Free(oldBase)
					hadOld = false
					continue
				}
				if c.cfg.OnMemoryPressure == nil || !c.cfg.OnMemoryPressure(newChunks) {
					panic("core: out of machine memory and no pressure handler")
				}
			}
		}
		if hadOld {
			c.buddy.Free(oldBase)
		}
	}
	ps.alloc = newChunks
	if newChunks > 0 {
		ps.meta.PageSizeCode = uint8(newChunks - 1)
	} else {
		ps.meta.PageSizeCode = 0
	}
}

// --- metadata cache path ----------------------------------------------

// lookupMetadata returns the cache line for page and the core cycle at
// which translation data is available.
func (c *Controller) lookupMetadata(now uint64, page uint64) (*metadata.Line, uint64) {
	if c.inj.Roll(faults.MDCacheMiss) {
		// Injected invalidation glitch: the resident entry is lost and
		// refetched; dirty entries still write back (traffic, not state).
		if ev, ok := c.mdc.ForcedMiss(page); ok {
			c.stats.InjectedFaults++
			c.stats.ForcedMDMisses++
			c.tr.Emit(now, obs.EvInjectedFault, page, uint64(faults.MDCacheMiss))
			c.handleEvictions(now, []metadata.Evicted{ev})
		}
	}
	if l, ok := c.mdc.Lookup(page); ok {
		c.port.Attr().Exposed(obs.CompMDCacheHit, c.cfg.MetadataHitLatency)
		return l, now + c.cfg.MetadataHitLatency
	}
	done := c.port.MetadataRead(now, page)
	c.port.Attr().Exposed(obs.CompMDFetch, done-now)
	c.loadBacking(now, page)
	ps := &c.pages[page]
	half := ps.meta.Valid && !ps.meta.Compressed
	// Zero and invalid pages need only the control word, so they cache
	// as half entries too.
	if !ps.meta.Valid || ps.meta.Zero {
		half = true
	}
	l, evicted := c.mdc.Insert(page, half)
	c.handleEvictions(now, evicted)
	return l, done
}

// ensureFull promotes a half entry to a full one, charging the fetch
// of the entry's second half.
func (c *Controller) ensureFull(now uint64, page uint64, l *metadata.Line) {
	if !l.Half {
		return
	}
	done := c.port.MetadataRead(now, page)
	c.port.Attr().Hidden(obs.CompMDFetch, done-now)
	c.handleEvictions(now, c.mdc.Promote(l))
}

func (c *Controller) handleEvictions(now uint64, evicted []metadata.Evicted) {
	for _, ev := range evicted {
		if ev.Dirty {
			c.port.MetadataWriteback(now, ev.Page)
			c.storeBacking(ev.Page)
		}
		if c.cfg.DynamicRepacking {
			c.maybeRepack(now, ev.Page)
		}
	}
}

// loadBacking round-trips the entry through its packed 64-byte form,
// exercising the architectural format on every metadata miss. A
// backing image that no longer decodes (or that contradicts the
// controller's authoritative allocation state) is treated as detected
// corruption: the page is rebuilt from the data rather than crashing
// the simulator (the paper's data-is-authoritative recovery).
func (c *Controller) loadBacking(now uint64, page uint64) {
	if c.backing == nil {
		return
	}
	e, err := metadata.Unpack(c.backing[page*metadata.EntrySize:])
	if err != nil {
		c.stats.CorruptionsDetected++
		c.repairPage(now, page, false)
		return
	}
	if c.inj.Enabled() && !c.entryAdoptable(&c.pages[page], &e) {
		// The entry decodes but contradicts the allocation bookkeeping
		// (wrong chunk list, impossible layout): adopting it could walk
		// the controller off its own allocation. Rebuild instead.
		c.stats.CorruptionsDetected++
		c.repairPage(now, page, false)
		return
	}
	c.pages[page].meta = e
}

func (c *Controller) storeBacking(page uint64) {
	if c.backing == nil {
		return
	}
	c.pages[page].meta.Pack(c.backing[page*metadata.EntrySize:])
	if c.inj.Roll(faults.MetaBitFlip) {
		c.stats.InjectedFaults++
		c.tr.Emit(c.tnow, obs.EvInjectedFault, page, uint64(faults.MetaBitFlip))
		c.inj.FlipBit(c.backing[page*metadata.EntrySize : (page+1)*metadata.EntrySize])
	}
}

// --- data access helpers ----------------------------------------------

// span returns the machine lines covering [off, off+size) of the page's
// allocation (none for an empty span, two for a split access), in a
// buffer reused by the next call.
func (c *Controller) span(ps *pageState, off, size int) []uint64 {
	if size <= 0 {
		return nil
	}
	c.spanBuf[0] = c.dataMachineLine(ps, off)
	if !compress.SplitAccess(off, size) {
		return c.spanBuf[:1]
	}
	c.spanBuf[1] = c.dataMachineLine(ps, off+size-1)
	return c.spanBuf[:2]
}

// demandRead is the read of [off, off+size) issued at start, its
// dominant access charged exposed. Returns the completion cycle.
func (c *Controller) demandRead(start uint64, ps *pageState, off, size int) uint64 {
	done, queue, service := c.port.Read(start, c.span(ps, off, size)...)
	c.port.Attr().ExposedDRAM(queue, service)
	return done
}

// firstTouch initializes an untouched OSPA page as a zero page (the OS
// zeroes anonymous pages before handing them out).
func (c *Controller) firstTouch(page uint64, l *metadata.Line) *pageState {
	ps := &c.pages[page]
	ps.meta = metadata.Entry{Valid: true, Zero: true, Compressed: true}
	ps.actual = [metadata.LinesPerPage]uint8{}
	c.validPages++
	l.Dirty = true
	return ps
}

// --- demand path -------------------------------------------------------

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	c.pin(page)
	defer c.unpin()
	c.tnow = now
	c.stats.DemandReads++
	attr := c.port.Attr()
	attr.Begin(now, page, false)

	l, mdDone := c.lookupMetadata(now, page)
	ps := &c.pages[page]
	if !ps.meta.Valid {
		ps = c.firstTouch(page, l)
	}
	if ps.meta.Zero || ps.actual[line] == 0 {
		// Zero pages, zero-slot lines and lines whose latest writeback
		// was all zeros are served from metadata alone (§VII-A: "fills
		// and writebacks of all-zero cache lines do not require memory
		// access and are handled by accessing (cached) compression
		// metadata alone"); a stale slot is reclaimed at the next
		// repack.
		c.stats.ZeroLineOps++
		attr.End(mdDone)
		return memctl.Result{Done: mdDone}
	}
	if !ps.meta.Compressed {
		done := c.demandRead(mdDone, ps, line*memctl.LineBytes, memctl.LineBytes)
		attr.End(done)
		return memctl.Result{Done: done}
	}
	// Compressed page.
	if pos, ok := ps.meta.IsInflated(line); ok {
		done := c.demandRead(mdDone, ps, c.irOffset(ps, pos), memctl.LineBytes)
		attr.End(done)
		return memctl.Result{Done: done}
	}
	slot := int(ps.meta.LineSizeCode[line])
	size := c.cfg.Bins.SizeOf(slot)
	// Fetch the line's actual compressed bytes (bounded by its slot).
	fetch := c.cfg.Bins.SizeOf(int(ps.actual[line]))
	if fetch == 0 || fetch > size {
		// A zero or stale-size line still occupies the slot; the
		// controller fetches the slot's bytes.
		fetch = size
	}
	done := c.demandRead(mdDone, ps, c.packedOffset(ps, line), fetch)
	if c.cfg.Overlap {
		// Overlapped-controller model: decompression starts streaming as
		// the line's beats arrive, so only the part of DecompressLatency
		// that exceeds the DRAM service window (mdDone..done) remains on
		// the critical path.
		hidden := c.cfg.DecompressLatency
		if window := done - mdDone; window < hidden {
			hidden = window
		}
		exposed := c.cfg.DecompressLatency - hidden
		c.stats.OverlapReads++
		c.stats.OverlapHiddenCycles += hidden
		c.stats.OverlapExposedCycles += exposed
		attr.Exposed(obs.CompDecompress, exposed)
		attr.Hidden(obs.CompDecompress, hidden)
		attr.End(done + exposed)
		return memctl.Result{Done: done + exposed}
	}
	attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	attr.End(done + c.cfg.DecompressLatency)
	return memctl.Result{Done: done + c.cfg.DecompressLatency}
}

// WriteLine implements memctl.Controller.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	if len(data) != memctl.LineBytes {
		panic(fmt.Sprintf("core: WriteLine with %d bytes", len(data)))
	}
	c.pin(page)
	defer c.unpin()
	c.tnow = now
	c.stats.DemandWrites++
	// Writebacks are posted (the demand path never waits on them):
	// every charge below demotes to hidden and the access balances at
	// its zero charged latency.
	attr := c.port.Attr()
	attr.Begin(now, page, true)
	attr.Posted()

	l, mdDone := c.lookupMetadata(now, page)
	ps := &c.pages[page]
	if !ps.meta.Valid {
		ps = c.firstTouch(page, l)
	}
	if _, bad := c.corrupt[lineAddr]; bad {
		// The writeback carries the line's current value, so it either
		// replaces the corrupt stored copy or retires the slot entirely
		// (zero lines are served from metadata).
		delete(c.corrupt, lineAddr)
		c.stats.CorruptionsHealed++
	}
	newCode := c.compressCodeAt(lineAddr, data)
	oldActual := ps.actual[line]

	switch {
	case ps.meta.Zero:
		if newCode == 0 {
			c.stats.ZeroLineOps++
			attr.End(now)
			return memctl.Result{Done: now}
		}
		c.zeroToCompressed(mdDone, ps, l, page, line, newCode)
	case !ps.meta.Compressed:
		c.port.Write(mdDone, c.span(ps, line*memctl.LineBytes, memctl.LineBytes)...)
		c.noteUnderOverflow(page, l, oldActual, newCode)
		ps.actual[line] = newCode
		c.updateFreeSpace(ps)
		l.Dirty = true
	default:
		c.writeCompressed(now, mdDone, ps, l, page, line, newCode, oldActual)
	}
	if c.lineStoresBytes(ps, line) && c.inj.Roll(faults.DataBitFlip) {
		// The burst that stored this writeback took a bit flip: the
		// stored copy no longer matches the authoritative source until
		// the next writeback or an audit repair replaces it.
		c.stats.InjectedFaults++
		c.tr.Emit(now, obs.EvInjectedFault, page, uint64(faults.DataBitFlip))
		c.corrupt[lineAddr] = struct{}{}
	}
	attr.End(now)
	return memctl.Result{Done: now}
}

// lineStoresBytes reports whether the line currently occupies stored
// machine bytes (false for zero pages and zero-slot compressed lines,
// which are served from metadata alone).
func (c *Controller) lineStoresBytes(ps *pageState, line int) bool {
	if !ps.meta.Valid || ps.meta.Zero {
		return false
	}
	if !ps.meta.Compressed {
		return true
	}
	if _, ok := ps.meta.IsInflated(line); ok {
		return true
	}
	return c.cfg.Bins.SizeOf(int(ps.actual[line])) > 0
}

func (c *Controller) noteUnderOverflow(page uint64, l *metadata.Line, oldCode, newCode uint8) {
	if newCode < oldCode {
		c.stats.LineUnderflows++
		c.tr.Emit(c.tnow, obs.EvLineUnderflow, page, uint64(newCode))
		l.BumpPredictor(false)
	}
}

// zeroToCompressed transitions a zero page to a minimal compressed
// page holding one non-zero line.
func (c *Controller) zeroToCompressed(mdDone uint64, ps *pageState, l *metadata.Line, page uint64, line int, newCode uint8) {
	c.ensureFull(mdDone, page, l)
	need := c.allowedChunks(ceilDiv(c.cfg.Bins.SizeOf(int(newCode)), metadata.ChunkSize))
	c.resizePage(ps, need)
	ps.meta.Zero = false
	ps.meta.Compressed = true
	ps.meta.InflatedCount = 0
	for i := range ps.meta.LineSizeCode {
		ps.meta.LineSizeCode[i] = 0
	}
	ps.meta.LineSizeCode[line] = newCode
	ps.actual[line] = newCode
	c.updateFreeSpace(ps)
	c.port.Write(mdDone, c.span(ps, c.packedOffset(ps, line), c.cfg.Bins.SizeOf(int(newCode)))...)
	l.Dirty = true
}

// writeCompressed handles a writeback to a line of a compressed page:
// the §IV decision tree (in place / inflation room / IR expansion /
// prediction / page overflow).
func (c *Controller) writeCompressed(now, mdDone uint64, ps *pageState, l *metadata.Line, page uint64, line int, newCode, oldActual uint8) {
	defer func() {
		c.updateFreeSpace(ps)
		l.Dirty = true
	}()

	if pos, ok := ps.meta.IsInflated(line); ok {
		// Inflation-room slots are a full line: no overflow possible.
		c.noteUnderOverflow(page, l, oldActual, newCode)
		ps.actual[line] = newCode
		c.port.Write(mdDone, c.span(ps, c.irOffset(ps, pos), memctl.LineBytes)...)
		return
	}
	slot := ps.meta.LineSizeCode[line]
	if newCode <= slot {
		c.noteUnderOverflow(page, l, oldActual, newCode)
		ps.actual[line] = newCode
		size := c.cfg.Bins.SizeOf(int(newCode))
		if size == 0 {
			// The line became all-zero: no data write needed; the slot
			// is reclaimed at the next repack.
			c.stats.ZeroLineOps++
			return
		}
		c.port.Write(mdDone, c.span(ps, c.packedOffset(ps, line), size)...)
		return
	}

	// Cache-line overflow (§IV, Fig. 1c).
	c.stats.LineOverflows++
	c.tr.Emit(c.tnow, obs.EvLineOverflow, page, uint64(line))
	l.BumpPredictor(true)
	ps.actual[line] = newCode
	c.ensureFull(mdDone, page, l)

	// §IV-B2: predicted streams of incompressible data skip straight
	// to an uncompressed page.
	if c.cfg.PredictOverflows && l.PredictorHigh() && c.global.High() {
		c.stats.Predictions++
		c.tr.Emit(c.tnow, obs.EvPrediction, page, uint64(line))
		c.uncompressPage(now, ps, l)
		c.port.Write(mdDone, c.span(ps, line*memctl.LineBytes, memctl.LineBytes)...)
		return
	}

	// Inflation room (§III). Successful placements are the system
	// absorbing overflows without page growth; a slow decay of the
	// global overflow predictor keeps prediction armed only while page
	// overflows outpace the inflation room (the paper reports 19%
	// false positives; an undecayed global counter predicts far more,
	// an aggressively decayed one never).
	if c.tryInflate(ps, line) {
		c.stats.IRPlacements++
		c.tr.Emit(c.tnow, obs.EvIRPlacement, page, uint64(line))
		c.irDecay++
		if c.irDecay%8 == 0 {
			c.global.Record(false)
		}
		pos, _ := ps.meta.IsInflated(line)
		c.port.Write(mdDone, c.span(ps, c.irOffset(ps, pos), memctl.LineBytes)...)
		return
	}

	// §IV-B3: dynamic inflation-room expansion — allocate one more
	// chunk instead of recompressing the page (1 write vs up to 128
	// accesses). Requires fixed chunks, room in the MPFN array and a
	// free inflation pointer.
	if c.cfg.DynamicIRExpansion && c.cfg.Allocation == FixedChunks &&
		ps.meta.Chunks() < metadata.MaxChunks &&
		int(ps.meta.InflatedCount) < metadata.MaxInflated &&
		c.pageSizeAllowed(ps.meta.Chunks()+1) {
		c.stats.IRExpansions++
		c.tr.Emit(c.tnow, obs.EvIRExpansion, page, uint64(ps.meta.Chunks()+1))
		c.resizePage(ps, ps.meta.Chunks()+1)
		if !c.tryInflate(ps, line) {
			panic("core: IR expansion failed to make room")
		}
		pos, _ := ps.meta.IsInflated(line)
		c.port.Write(mdDone, c.span(ps, c.irOffset(ps, pos), memctl.LineBytes)...)
		return
	}

	// Page overflow: repack the page at its new size.
	c.pageOverflow(now, ps, l, page, line)
}

// tryInflate places line into the inflation room if pointers and space
// allow. The line's packed slot becomes a hole until repacking.
func (c *Controller) tryInflate(ps *pageState, line int) bool {
	if int(ps.meta.InflatedCount) >= metadata.MaxInflated {
		return false
	}
	needed := c.packedBytes(ps) + (int(ps.meta.InflatedCount)+1)*memctl.LineBytes
	if needed > ps.meta.AllocatedBytes() {
		return false
	}
	_, ok := ps.meta.AddInflated(line)
	return ok
}

func (c *Controller) checkPage(page uint64) {
	if page >= uint64(len(c.pages)) {
		panic(fmt.Sprintf("core: OSPA page %d beyond advertised %d", page, len(c.pages)))
	}
}

// InstallPage implements memctl.Controller: pre-populates a page at
// simulation setup with no accounting (fast-forward state).
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	c.checkPage(page)
	if len(lines) != metadata.LinesPerPage {
		panic(fmt.Sprintf("core: InstallPage with %d lines", len(lines)))
	}
	ps := &c.pages[page]
	if ps.meta.Valid {
		panic(fmt.Sprintf("core: InstallPage of already-valid page %d", page))
	}
	c.pin(page)
	defer c.unpin()
	fresh := 0
	for i, ln := range lines {
		code := c.compressCodeAt(page*metadata.LinesPerPage+uint64(i), ln)
		ps.actual[i] = code
		fresh += c.cfg.Bins.SizeOf(int(code))
	}
	c.validPages++
	if fresh == 0 {
		ps.meta = metadata.Entry{Valid: true, Zero: true, Compressed: true}
		c.storeBacking(page)
		return
	}
	need := c.allowedChunks(ceilDiv(fresh, metadata.ChunkSize))
	ps.meta = metadata.Entry{Valid: true}
	ps.meta.Compressed = need < metadata.MaxChunks
	c.resizePage(ps, need)
	ps.meta.LineSizeCode = ps.actual
	c.updateFreeSpace(ps)
	c.storeBacking(page)
}

func (c *Controller) pin(page uint64) {
	c.pinned = page
	c.hasPinned = true
}

func (c *Controller) unpin() { c.hasPinned = false }

// Discard drops an OSPA page entirely (the ballooning driver reclaimed
// it, §V-B): its machine chunks are freed and the metadata entry is
// invalidated so the page needs no MPA storage. The page of an
// in-flight access is pinned and silently skipped: the balloon's LRU
// will offer a colder page on its next iteration.
func (c *Controller) Discard(page uint64) {
	c.checkPage(page)
	if c.hasPinned && page == c.pinned {
		return
	}
	ps := &c.pages[page]
	if !ps.meta.Valid {
		return
	}
	c.resizePage(ps, 0)
	ps.meta = metadata.Entry{}
	ps.actual = [metadata.LinesPerPage]uint8{}
	c.mdc.Drop(page)
	c.storeBacking(page)
	c.validPages--
	c.clearCorrupt(page)
}

// FreeMachineChunks reports the allocator's free chunk count (the
// ballooning watermark input).
func (c *Controller) FreeMachineChunks() int {
	if c.chunks != nil {
		return c.chunks.FreeChunks()
	}
	return int(c.buddy.FreeBytes() / metadata.ChunkSize)
}
