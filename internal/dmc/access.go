package dmc

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
)

// lzLatency is the added decompression latency for a cold (LZ) block
// access; LZ is serial and works at 1 KB granularity.
const lzLatency = 64

// --- metadata path ------------------------------------------------------

func (c *Controller) lookupMetadata(now uint64, page uint64) (*metadata.Line, uint64) {
	if l, ok := c.mdc.Lookup(page); ok {
		c.port.Attr().Exposed(obs.CompMDCacheHit, c.cfg.MetadataHitLatency)
		return l, now + c.cfg.MetadataHitLatency
	}
	done := c.port.MetadataRead(now, page)
	c.port.Attr().Exposed(obs.CompMDFetch, done-now)
	l, evicted := c.mdc.Insert(page, false)
	for _, ev := range evicted {
		if ev.Dirty {
			c.port.MetadataWriteback(now, ev.Page)
		}
	}
	return l, done
}

// --- temperature tracking -----------------------------------------------

func (c *Controller) touchRegion(now uint64, page uint64) {
	c.regionHits[int(page)/c.cfg.RegionPages]++
	c.sinceScan++
	if c.sinceScan >= c.cfg.ReclassifyEvery {
		c.rescan(now)
	}
}

// rescan reclassifies regions by temperature and converts mismatched
// pages — DMC's mechanism-switch data movement.
func (c *Controller) rescan(now uint64) {
	c.sinceScan = 0
	for r := range c.regionHits {
		hot := c.regionHits[r] >= c.cfg.HotThreshold
		c.regionHits[r] = 0
		for pg := r * c.cfg.RegionPages; pg < (r+1)*c.cfg.RegionPages && pg < len(c.pages); pg++ {
			p := &c.pages[pg]
			if !p.Valid || p.Zero {
				continue
			}
			if c.hasPinned && uint64(pg) == c.pinned {
				continue
			}
			if p.cold == !hot {
				continue
			}
			c.convert(now, uint64(pg), p, !hot)
		}
	}
}

// convert switches a page between the hot (LCP/BDI) and cold (LZ 1 KB)
// mechanisms, moving the whole page.
func (c *Controller) convert(now uint64, page uint64, p *dmcPage, toCold bool) {
	c.MechanismSwitches++
	moves := c.copyPage(now, p, false)
	if toCold {
		c.priceCold(page, p)
	} else {
		c.priceHot(page, p)
	}
	p.cold = toCold
	c.resize(p)
	c.stats.OverflowAccesses += moves + c.copyPage(now, p, true)
}

// resize moves the page to a block sized for its current format; DMC
// relocates only when the chunk count changes.
func (c *Controller) resize(p *dmcPage) {
	if chunks := lcp.SizeFor(storedBytes(p)); chunks != p.Chunks {
		c.store.Relocate(&p.Page, chunks)
	}
}

// copyPage reads or writes the page's current format line by line (the
// approximation of moving its nonzero content), charged as overflow
// movement, and returns the access count.
func (c *Controller) copyPage(now uint64, p *dmcPage, write bool) uint64 {
	var moves uint64
	for off, n := 0, storedBytes(p); off < n; off += memctl.LineBytes {
		c.port.Hidden(now, c.store.Line(&p.Page, off), write, obs.CompOverflow)
		moves++
	}
	return moves
}

// priceCold recomputes the page's per-block LZ sizes from its data.
func (c *Controller) priceCold(page uint64, p *dmcPage) {
	for b := 0; b < blocksPerPage; b++ {
		c.repriceBlock(page, p, b)
	}
}

// priceHot re-sizes the page's lines from source data and packs its
// LCP layout afresh.
func (c *Controller) priceHot(page uint64, p *dmcPage) {
	for l := range p.Sizes {
		c.source.ReadLine(page*metadata.LinesPerPage+uint64(l), c.lineBuf[:])
		p.Sizes[l] = c.binBytes(c.compressCode(c.lineBuf[:]))
	}
	p.Pack(c.cfg.Bins)
}

// --- demand path ----------------------------------------------------------

func (c *Controller) blockOffset(p *dmcPage, b int) int {
	off := 0
	for i := 0; i < b; i++ {
		off += p.blockBytes[i]
	}
	return off
}

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	c.stats.DemandReads++
	attr := c.port.Attr()
	attr.Begin(now, page, false)
	c.touchRegion(now, page)

	l, mdDone := c.lookupMetadata(now, page)
	p := &c.pages[page]
	if !p.Valid {
		p.Valid = true
		p.Zero = true
		c.validPages++
		l.Dirty = true
	}
	if p.Zero || p.Sizes[line] == 0 {
		c.stats.ZeroLineOps++
		attr.End(mdDone)
		return memctl.Result{Done: mdDone}
	}
	if p.cold {
		// Fetch and decompress the whole 1 KB block.
		b := line / (LZBlockBytes / memctl.LineBytes)
		if p.blockBytes[b] == 0 {
			c.stats.ZeroLineOps++
			attr.End(mdDone)
			return memctl.Result{Done: mdDone}
		}
		// All block accesses issue at mdDone; the slowest one is the
		// exposed DRAM segment, the rest (split accesses of the coarse
		// block) are hidden.
		done, queue, service := c.port.Read(mdDone, c.store.Span(&p.Page, c.blockOffset(p, b), p.blockBytes[b])...)
		attr.ExposedDRAM(queue, service)
		attr.Exposed(obs.CompDecompress, lzLatency)
		attr.End(done + lzLatency)
		return memctl.Result{Done: done + lzLatency}
	}
	// Hot page: LCP-style.
	if slot, ok := p.ExcSlot(line); ok {
		done, queue, service := c.port.Read(mdDone, c.store.Span(&p.Page, p.ExcOffset(slot), memctl.LineBytes)...)
		attr.ExposedDRAM(queue, service)
		attr.End(done)
		return memctl.Result{Done: done}
	}
	done, queue, service := c.port.Read(mdDone, c.store.Span(&p.Page, p.LineOffset(line), int(p.Target))...)
	attr.ExposedDRAM(queue, service)
	attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	attr.End(done + c.cfg.DecompressLatency)
	return memctl.Result{Done: done + c.cfg.DecompressLatency}
}

// WriteLine implements memctl.Controller.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	page, line := lineAddr/metadata.LinesPerPage, int(lineAddr%metadata.LinesPerPage)
	c.checkPage(page)
	if len(data) != memctl.LineBytes {
		panic(fmt.Sprintf("dmc: WriteLine with %d bytes", len(data)))
	}
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	c.stats.DemandWrites++
	// Writes are posted: Exposed charges below demote to hidden.
	attr := c.port.Attr()
	attr.Begin(now, page, true)
	attr.Posted()
	c.touchRegion(now, page)

	l, mdDone := c.lookupMetadata(now, page)
	p := &c.pages[page]
	if !p.Valid {
		p.Valid = true
		p.Zero = true
		c.validPages++
		l.Dirty = true
	}
	newCode := c.compressCode(data)
	size := c.binBytes(newCode)
	if p.Zero {
		if size == 0 {
			c.stats.ZeroLineOps++
			attr.End(now)
			return memctl.Result{Done: now}
		}
		// Materialize hot with the written line's size as target.
		p.Zero = false
		p.cold = false
		p.Target = size
		p.Sizes = [metadata.LinesPerPage]uint8{}
		p.Sizes[line] = size
		c.store.Place(&p.Page, lcp.SizeFor(p.Bytes()))
		c.port.Write(mdDone, c.store.Line(&p.Page, p.LineOffset(line)))
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

	if p.cold {
		// Read-modify-write of the 1 KB block; growth rewrites the page.
		b := line / (LZBlockBytes / memctl.LineBytes)
		oldBytes := p.blockBytes[b]
		c.repriceBlock(page, p, b)
		var moves uint64
		for _, ml := range c.store.Span(&p.Page, c.blockOffset(p, b), oldBytes) {
			c.port.Hidden(now, ml, false, obs.CompOverflow)
			moves++
		}
		if p.blockBytes[b] > oldBytes {
			c.stats.LineOverflows++
			c.tr.Emit(now, obs.EvLineOverflow, page, uint64(line))
			c.resize(p)
			moves += c.copyPage(now, p, true)
		} else {
			if lines := c.store.Span(&p.Page, c.blockOffset(p, b), p.blockBytes[b]); len(lines) == 0 {
				c.stats.ZeroLineOps++
			} else {
				c.port.Write(now, lines[0]) // the demand data write
				for _, ml := range lines[1:] {
					c.port.Hidden(now, ml, true, obs.CompOverflow)
					moves++
				}
			}
		}
		c.stats.OverflowAccesses += moves
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}

	// Hot page.
	if slot, ok := p.ExcSlot(line); ok {
		c.port.Write(mdDone, c.store.Span(&p.Page, p.ExcOffset(slot), memctl.LineBytes)...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}
	if size <= p.Target {
		if size == 0 {
			c.stats.ZeroLineOps++
		} else {
			c.port.Write(mdDone, c.store.Span(&p.Page, p.LineOffset(line), int(size))...)
		}
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}
	// Overflow into the exception region or page rewrite.
	c.stats.LineOverflows++
	c.tr.Emit(now, obs.EvLineOverflow, page, uint64(line))
	if slot, ok := p.AddException(line); ok {
		c.stats.IRPlacements++
		c.tr.Emit(now, obs.EvIRPlacement, page, uint64(line))
		c.port.Write(mdDone, c.store.Span(&p.Page, p.ExcOffset(slot), memctl.LineBytes)...)
		l.Dirty = true
		attr.End(now)
		return memctl.Result{Done: now}
	}
	c.stats.PageOverflows++
	c.tr.Emit(now, obs.EvPageOverflow, page, uint64(line))
	c.rewriteHotPage(now, page, p)
	l.Dirty = true
	attr.End(now)
	return memctl.Result{Done: now}
}

// repriceBlock recomputes one cold block's LZ size from source data.
// Blocks are stored line-aligned for sane offsets.
func (c *Controller) repriceBlock(page uint64, p *dmcPage, b int) {
	const blockLines = LZBlockBytes / memctl.LineBytes
	first := page*metadata.LinesPerPage + uint64(b*blockLines)
	for l := 0; l < blockLines; l++ {
		c.source.ReadLine(first+uint64(l), c.blockBuf[l*memctl.LineBytes:(l+1)*memctl.LineBytes])
	}
	n := compress.LZSizeBlock(c.blockBuf[:])
	p.blockBytes[b] = (n + memctl.LineBytes - 1) &^ (memctl.LineBytes - 1)
}

// rewriteHotPage re-targets and relocates a hot page (no OS fault: DMC
// is transparent).
func (c *Controller) rewriteHotPage(now uint64, page uint64, p *dmcPage) {
	moves := c.copyPage(now, p, false)
	c.priceHot(page, p)
	c.resize(p)
	c.stats.OverflowAccesses += moves + c.copyPage(now, p, true)
}

// InstallPage implements memctl.Controller (pages start hot).
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	c.checkPage(page)
	if len(lines) != metadata.LinesPerPage {
		panic(fmt.Sprintf("dmc: InstallPage with %d lines", len(lines)))
	}
	p := &c.pages[page]
	if p.Valid {
		panic(fmt.Sprintf("dmc: InstallPage of already-valid page %d", page))
	}
	c.pinned, c.hasPinned = page, true
	defer func() { c.hasPinned = false }()
	allZero := true
	for i, ln := range lines {
		code := c.compressCode(ln)
		p.Sizes[i] = c.binBytes(code)
		allZero = allZero && code == 0
	}
	p.Valid = true
	c.validPages++
	if allZero {
		p.Zero = true
		return
	}
	if c.cfg.StartCold {
		c.priceCold(page, p)
		p.cold = true
	} else {
		c.priceHot(page, p)
	}
	c.store.Place(&p.Page, lcp.SizeFor(storedBytes(p)))
}

// Discard drops a page (ballooning).
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
		c.store.Free(&p.Page)
	}
	*p = dmcPage{}
	c.mdc.Drop(page)
	c.validPages--
}

// FreeMachineChunks reports free allocator capacity.
func (c *Controller) FreeMachineChunks() int { return c.store.FreeMachineChunks() }
