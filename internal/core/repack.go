package core

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
)

// relocatePage rewrites the page's layout: every non-zero line is read
// from its old location and written to its fresh one. newChunks sizes
// the new allocation; uncompressed selects a flat 64 B/line layout.
// skipRead (a line index, or -1) marks a line whose data arrived with
// the triggering writeback and needs no read. The movement count is
// added to *counter, the DRAM traffic is issued at cycle now, and the
// movement's DRAM cycles are charged hidden to comp in the
// attribution ledger (page moves never stall the demand access).
func (c *Controller) relocatePage(now uint64, ps *pageState, newChunks int, uncompressed bool, skipRead int, counter *uint64, comp obs.Component) {
	var moves uint64

	// Read phase: old locations.
	for line := 0; line < metadata.LinesPerPage; line++ {
		if ps.actual[line] == 0 || line == skipRead {
			continue
		}
		var off, size int
		if pos, ok := ps.meta.IsInflated(line); ok {
			off, size = c.irOffset(ps, pos), memctl.LineBytes
		} else if !ps.meta.Compressed {
			off, size = line*memctl.LineBytes, memctl.LineBytes
		} else {
			off = c.packedOffset(ps, line)
			size = c.cfg.Bins.SizeOf(int(ps.meta.LineSizeCode[line]))
		}
		if size == 0 {
			continue
		}
		c.port.Hidden(now, c.dataMachineLine(ps, off), false, comp)
		moves++
	}

	// Re-layout.
	c.resizePage(ps, newChunks)
	ps.meta.Zero = false
	ps.meta.Compressed = !uncompressed
	ps.meta.InflatedCount = 0
	ps.meta.LineSizeCode = ps.actual
	c.updateFreeSpace(ps)

	// Write phase: new locations.
	for line := 0; line < metadata.LinesPerPage; line++ {
		if ps.actual[line] == 0 {
			continue
		}
		var off int
		if uncompressed {
			off = line * memctl.LineBytes
		} else {
			off = c.packedOffset(ps, line)
		}
		c.port.Hidden(now, c.dataMachineLine(ps, off), true, comp)
		moves++
	}
	*counter += moves
}

// pageOverflow (§IV) regrows and repacks a compressed page whose
// inflation options are exhausted. Being OS-transparent, Compresso
// handles this in the controller without a page fault, unlike the
// OS-aware LCP baseline.
func (c *Controller) pageOverflow(now uint64, ps *pageState, l *metadata.Line, page uint64, line int) {
	c.stats.PageOverflows++
	c.tr.Emit(now, obs.EvPageOverflow, page, uint64(line))
	// Page overflows are the expensive event prediction exists to
	// avoid: arm the global predictor faster than IR placements decay
	// it.
	c.global.Record(true)
	c.global.Record(true)
	need := c.allowedChunks(ceilDiv(c.freshBytes(ps), metadata.ChunkSize))
	c.relocatePage(now, ps, need, false, line, &c.stats.OverflowAccesses, obs.CompOverflow)
	l.Dirty = true
}

// uncompressPage (§IV-B2) speculatively stores the page uncompressed
// when both overflow predictors fire, so a stream of incompressible
// writebacks stops paying per-size-step page overflows. The squandered
// compression is restored later by dynamic repacking.
func (c *Controller) uncompressPage(now uint64, ps *pageState, l *metadata.Line) {
	c.relocatePage(now, ps, metadata.MaxChunks, true, -1, &c.stats.OverflowAccesses, obs.CompOverflow)
	c.mdc.Demote(l)
	l.Dirty = true
}

// maybeRepack is the §IV-B4 trigger: on metadata-cache eviction of a
// page whose tracked free space reaches a whole chunk, recompress the
// page to its minimal size (possibly all the way to a zero page).
func (c *Controller) maybeRepack(now uint64, page uint64) {
	ps := &c.pages[page]
	if !ps.meta.Valid || ps.meta.Zero {
		return
	}
	if int(ps.meta.FreeSpace) < metadata.ChunkSize {
		return
	}
	fresh := c.freshBytes(ps)
	if fresh == 0 {
		// Every line is zero now: the page needs no storage at all.
		c.stats.Repacks++
		c.tr.Emit(now, obs.EvRepack, page, 0)
		c.resizePage(ps, 0)
		ps.meta.Zero = true
		ps.meta.Compressed = true
		ps.meta.InflatedCount = 0
		ps.meta.LineSizeCode = ps.actual
		ps.meta.FreeSpace = 0
		c.finishRepack(now, page)
		return
	}
	need := c.allowedChunks(ceilDiv(fresh, metadata.ChunkSize))
	// Hysteresis: a page with active inflation-room lines is under
	// overflow pressure; repacking away a single chunk of slack would
	// be undone by the next IR expansion (pay a whole-page move to
	// save a move-avoidance buffer). Demand a two-chunk gain there.
	minGain := 1
	if ps.meta.InflatedCount > 0 {
		minGain = 2
	}
	if ps.meta.Chunks()-need < minGain {
		// The free space is real but not worth a page move yet:
		// cheap abort, metadata-only.
		c.stats.RepackAborts++
		c.tr.Emit(now, obs.EvRepackAbort, page, uint64(need))
		return
	}
	c.stats.Repacks++
	c.tr.Emit(now, obs.EvRepack, page, uint64(need))
	c.relocatePage(now, ps, need, false, -1, &c.stats.RepackAccesses, obs.CompRepack)
	// A successful repack is the system recovering compressibility:
	// relax the global overflow predictor.
	c.global.Record(false)
	c.finishRepack(now, page)
}

// finishRepack writes the repacked entry back to the metadata region
// (the entry was just evicted, so this is one extra metadata write,
// charged to the repacking budget).
func (c *Controller) finishRepack(now uint64, page uint64) {
	c.stats.RepackAccesses++
	c.port.Hidden(now, page, true, obs.CompRepack) // the entry's metadata line
	c.storeBacking(page)
}
