package dmc

import (
	"compresso/internal/compress"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
)

// lzLatency is the added decompression latency for a cold (LZ) block
// access; LZ is serial and works at 1 KB granularity.
const lzLatency = 64

// --- temperature tracking -----------------------------------------------

// touchRegion counts a demand access to page's region and runs the
// temperature scan when its interval is up.
func (c *Controller) touchRegion(now uint64, page uint64) {
	c.regionHits[int(page)/c.cfg.RegionPages]++
	c.sinceScan++
	if c.sinceScan >= c.cfg.ReclassifyEvery {
		c.rescan(now, page)
	}
}

// rescan reclassifies regions by temperature and converts mismatched
// pages — DMC's mechanism-switch data movement. The page of the access
// in flight (pinned) is left as it is.
func (c *Controller) rescan(now uint64, pinned uint64) {
	c.sinceScan = 0
	for r := range c.regionHits {
		hot := c.regionHits[r] >= c.cfg.HotThreshold
		c.regionHits[r] = 0
		for pg := r * c.cfg.RegionPages; pg < (r+1)*c.cfg.RegionPages && pg < c.cfg.OSPAPages; pg++ {
			page := uint64(pg)
			p := c.Page(page)
			if !p.Valid || p.Zero || page == pinned || c.tiers[pg].cold == !hot {
				continue
			}
			c.mechanismSwitches++
			c.relayout(now, page, p, !hot)
		}
	}
}

// relayout moves a page into a freshly priced layout of the hot
// (LCP/BDI) or cold (LZ 1 KB) format: the whole page is read out and
// written back, charged as overflow movement.
func (c *Controller) relayout(now uint64, page uint64, p *lcp.Page, cold bool) {
	moves := c.copyPage(now, page, p, false)
	if cold {
		c.priceCold(page)
	} else {
		c.priceHot(page, p)
	}
	c.tiers[page].cold = cold
	c.resize(page, p)
	c.Counters().OverflowAccesses += moves + c.copyPage(now, page, p, true)
}

// rewriteHot is dmc's hot-page overflow: it re-targets and relocates
// the page in place (no OS fault: DMC is transparent).
func (c *Controller) rewriteHot(a *lcp.Access) uint64 {
	c.relayout(a.Now, a.Page, a.P, false)
	return a.Now
}

// resize moves the page to a block sized for its current format; DMC
// relocates only when the chunk count changes.
func (c *Controller) resize(page uint64, p *lcp.Page) {
	if chunks := lcp.SizeFor(c.storedBytes(page, p)); chunks != p.Chunks {
		c.Store().Relocate(p, chunks)
	}
}

// copyPage reads or writes the page's current format line by line (the
// approximation of moving its nonzero content), charged as overflow
// movement, and returns the access count.
func (c *Controller) copyPage(now uint64, page uint64, p *lcp.Page, write bool) uint64 {
	var moves uint64
	for off, n := 0, c.storedBytes(page, p); off < n; off += memctl.LineBytes {
		c.Port().Hidden(now, c.Store().Line(p, off), write, obs.CompOverflow)
		moves++
	}
	return moves
}

// priceCold recomputes the page's per-block LZ sizes from its data.
func (c *Controller) priceCold(page uint64) {
	for b := range blocksPerPage {
		c.repriceBlock(page, b)
	}
}

// priceHot re-sizes the page's lines from source data, as the hot tier
// sizes an installed line, and packs its LCP layout afresh.
func (c *Controller) priceHot(page uint64, p *lcp.Page) {
	for l := range p.Sizes {
		addr := page*metadata.LinesPerPage + uint64(l)
		c.source.ReadLine(addr, c.lineBuf[:])
		p.Sizes[l] = uint8(c.cfg.Bins.SizeOf(int(c.LineCode(addr, c.lineBuf[:]))))
	}
	p.Pack(c.cfg.Bins)
}

// repriceBlock recomputes one cold block's LZ size from source data,
// through the source's memoized block sizes when it has them
// (memctl.LZBlockSizer). Blocks are stored line-aligned for sane
// offsets.
func (c *Controller) repriceBlock(page uint64, b int) {
	first := page*metadata.LinesPerPage + uint64(b*blockLines)
	var n int
	if c.blocks != nil {
		n = c.blocks.SizeLZBlock(first)
	} else {
		for l := 0; l < blockLines; l++ {
			c.source.ReadLine(first+uint64(l), c.blockBuf[l*memctl.LineBytes:(l+1)*memctl.LineBytes])
		}
		n = compress.LZSizeBlock(c.blockBuf[:])
	}
	c.tiers[page].blockBytes[b] = (n + memctl.LineBytes - 1) &^ (memctl.LineBytes - 1)
}

// blockOffset returns cold block b's offset within the page's block.
func (t *tier) blockOffset(b int) int {
	off := 0
	for i := 0; i < b; i++ {
		off += t.blockBytes[i]
	}
	return off
}

// --- demand path ----------------------------------------------------------

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	a := c.BeginRead(now, lineAddr)
	defer c.Unpin()
	c.touchRegion(now, a.Page)
	c.Lookup(a)
	t := &c.tiers[a.Page]
	if !t.cold || a.P.Zero || a.P.Sizes[a.Line] == 0 {
		return c.ReadSlot(a)
	}
	// Fetch and decompress the whole 1 KB block.
	b := a.Line / blockLines
	if t.blockBytes[b] == 0 {
		c.Counters().ZeroLineOps++
		return c.End(a.MDDone)
	}
	// All block accesses issue at MDDone; the slowest one is the
	// exposed DRAM segment, the rest (split accesses of the coarse
	// block) are hidden.
	attr := c.Port().Attr()
	done, queue, service := c.Port().Read(a.MDDone, c.Store().Span(a.P, t.blockOffset(b), t.blockBytes[b])...)
	attr.ExposedDRAM(queue, service)
	attr.Exposed(obs.CompDecompress, lzLatency)
	return c.End(done + lzLatency)
}

// WriteLine implements memctl.Controller.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	a := c.BeginWrite(now, lineAddr, data)
	defer c.Unpin()
	c.touchRegion(now, a.Page)
	c.Lookup(a)
	t := &c.tiers[a.Page]
	if !t.cold || a.P.Zero {
		t.cold = false // a zero page materializes hot
		return c.WriteSlot(a, c.rewriteHot)
	}

	// Read-modify-write of the 1 KB block; growth rewrites the page.
	c.Resize(a)
	port, st := c.Port(), c.Counters()
	b := a.Line / blockLines
	oldBytes := t.blockBytes[b]
	c.repriceBlock(a.Page, b)
	var moves uint64
	for _, ml := range c.Store().Span(a.P, t.blockOffset(b), oldBytes) {
		port.Hidden(now, ml, false, obs.CompOverflow)
		moves++
	}
	if t.blockBytes[b] > oldBytes {
		st.LineOverflows++
		c.Tracer().Emit(now, obs.EvLineOverflow, a.Page, uint64(a.Line))
		c.resize(a.Page, a.P)
		moves += c.copyPage(now, a.Page, a.P, true)
	} else if lines := c.Store().Span(a.P, t.blockOffset(b), t.blockBytes[b]); len(lines) == 0 {
		st.ZeroLineOps++
	} else {
		port.Write(now, lines[0]) // the demand data write
		for _, ml := range lines[1:] {
			port.Hidden(now, ml, true, obs.CompOverflow)
			moves++
		}
	}
	st.OverflowAccesses += moves
	a.MD.Dirty = true
	return c.End(now)
}

// InstallPage implements memctl.Controller: pages start hot, or cold
// under StartCold.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	p := c.Install(page, lines)
	defer c.Unpin()
	if p.Zero {
		return
	}
	c.tiers[page].cold = c.cfg.StartCold
	if c.cfg.StartCold {
		c.priceCold(page)
	} else {
		p.Pack(c.cfg.Bins)
	}
	c.Store().Place(p, lcp.SizeFor(c.storedBytes(page, p)))
}
