package core

import (
	"bytes"
	"fmt"
	"sort"

	"compresso/internal/audit"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

var _ audit.Auditable = (*Controller)(nil)

// Audit implements audit.Auditable: it cross-checks every piece of
// redundant state the controller keeps — allocator occupancy vs
// per-page chunk lists, the exact compressed-size shadow vs recorded
// slot codes, the packed metadata backing vs live entries, known
// corrupt lines vs the authoritative LineSource — and reports what it
// finds instead of panicking. With repair set, leaked chunks are
// released and every implicated page is rebuilt from the data.
//
// Structural audits are cheap (no DRAM traffic unless they repair) and
// valid at any quiet point between demand operations. Full audits
// additionally recompress every line from the LineSource and are only
// meaningful when no dirty lines are outstanding above the controller
// (unit and fuzz tests; the cycle simulator's caches hold newer data).
func (c *Controller) Audit(scope audit.Scope, repair bool) audit.Report {
	c.stats.AuditRuns++
	rep := audit.Report{Scope: scope, Ops: c.stats.DemandAccesses(), Pages: len(c.pages)}

	needRepair := make(map[uint64]bool)
	forceUnc := make(map[uint64]bool)
	flag := func(kind audit.Kind, page uint64, format string, args ...any) {
		rep.Violations = append(rep.Violations, audit.Violation{
			Kind: kind, Page: page, Detail: fmt.Sprintf(format, args...),
		})
		if page != audit.NoPage {
			needRepair[page] = true
		}
	}

	owner := make(map[uint32]uint64) // chunk -> first page referencing it
	var valid int64
	for p := range c.pages {
		page := uint64(p)
		ps := &c.pages[p]
		if ps.meta.Valid {
			valid++
		}
		if ps.meta.Chunks() != ps.alloc {
			flag(audit.AllocMismatch, page, "entry encodes %d chunks, bookkeeping holds %d",
				ps.meta.Chunks(), ps.alloc)
		}
		switch {
		case ps.meta.Valid && ps.meta.Zero:
			for line := range ps.actual {
				if ps.actual[line] != 0 {
					flag(audit.SizeShadow, page, "zero page has non-zero shadow code at line %d", line)
					break
				}
			}
		case ps.meta.Valid:
			c.auditChunks(ps, page, owner, flag)
			c.auditLayout(ps, page, flag)
		}
		// The packed backing must round-trip the live entry of every
		// page except one resident dirty in the metadata cache (its
		// writeback is still pending).
		if c.backing != nil {
			if l, ok := c.mdc.Peek(page); !ok || !l.Dirty {
				var buf [metadata.EntrySize]byte
				ps.meta.Pack(buf[:])
				if !bytes.Equal(buf[:], c.backing[page*metadata.EntrySize:(page+1)*metadata.EntrySize]) {
					flag(audit.BackingMismatch, page, "packed backing diverged from live entry")
				}
			}
		}
		if scope == audit.Full && ps.meta.Valid {
			for line := 0; line < metadata.LinesPerPage; line++ {
				if got := c.sourceCode(page, line); got != ps.actual[line] {
					flag(audit.DataCorruption, page,
						"line %d shadow code %d but source compresses to %d", line, ps.actual[line], got)
					break
				}
			}
		}
	}

	// Lines whose stored bytes took an injected flip: the copy in
	// machine memory no longer matches the authoritative source.
	if len(c.corrupt) > 0 {
		addrs := make([]uint64, 0, len(c.corrupt))
		for a := range c.corrupt {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			page := a / metadata.LinesPerPage
			flag(audit.DataCorruption, page, "line %d stored copy diverged from source",
				a%metadata.LinesPerPage)
			// The compressed image of this page is untrusted; the repair
			// degrades it to the flat layout and lets dynamic repacking
			// re-earn compression.
			forceUnc[page] = true
		}
	}

	// Allocator-side leaks: chunks handed out that no page references.
	var leaked []uint32
	if c.chunks != nil {
		for _, ch := range c.chunks.Used() {
			if _, ok := owner[ch]; !ok {
				leaked = append(leaked, ch)
				flag(audit.ChunkLeak, audit.NoPage, "chunk %d allocated but referenced by no page", ch)
			}
		}
	}

	if valid != c.validPages {
		flag(audit.ValidCountDrift, audit.NoPage, "counter says %d valid pages, scan found %d",
			c.validPages, valid)
	}

	c.stats.CorruptionsDetected += uint64(len(rep.Violations))

	if repair && !rep.OK() {
		// Leaks first: a page repair may legitimately re-acquire a
		// leaked chunk, and freeing it afterwards would corrupt the
		// freshly repaired page.
		for _, ch := range leaked {
			c.chunks.Free(ch)
		}
		c.validPages = valid
		pages := make([]uint64, 0, len(needRepair))
		for page := range needRepair {
			pages = append(pages, page)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		// Release every implicated page's chunks before rebuilding any:
		// with cross-page conflicts, repairing one page first could
		// re-acquire the shared chunk only to have the other page's
		// release free it again.
		for _, page := range pages {
			c.releasePageChunks(&c.pages[page])
		}
		for _, page := range pages {
			c.repairPage(0, page, forceUnc[page])
		}
		for i := range rep.Violations {
			v := &rep.Violations[i]
			if v.Page != audit.NoPage || v.Kind == audit.ChunkLeak || v.Kind == audit.ValidCountDrift {
				v.Repaired = true
			}
		}
	}
	return rep
}

// auditChunks verifies the chunk references of one valid non-zero page
// against the allocator and the ownership seen so far.
func (c *Controller) auditChunks(ps *pageState, page uint64, owner map[uint32]uint64,
	flag func(audit.Kind, uint64, string, ...any)) {
	if c.buddy != nil {
		if ps.alloc > 0 && !c.buddy.IsAllocated(ps.meta.MPFN[0]) {
			flag(audit.ChunkPhantom, page, "block base %d not live in the buddy allocator", ps.meta.MPFN[0])
		}
		return
	}
	n := ps.alloc
	if n > metadata.MaxChunks {
		n = metadata.MaxChunks
	}
	for i := 0; i < n; i++ {
		ch := ps.meta.MPFN[i]
		if !c.chunks.IsUsed(ch) {
			flag(audit.ChunkPhantom, page, "chunk %d (slot %d) is free in the allocator", ch, i)
			continue
		}
		if first, ok := owner[ch]; ok {
			flag(audit.ChunkConflict, page, "chunk %d (slot %d) already referenced by page %d", ch, i, first)
			// The earlier referent's data shares storage too: repair both.
			flag(audit.ChunkConflict, first, "chunk %d also referenced by page %d", ch, page)
		} else {
			owner[ch] = page
		}
	}
}

// auditLayout verifies the size/layout invariants of one valid
// non-zero page.
func (c *Controller) auditLayout(ps *pageState, page uint64,
	flag func(audit.Kind, uint64, string, ...any)) {
	if !ps.meta.Compressed {
		if ps.alloc != metadata.MaxChunks {
			flag(audit.AllocMismatch, page, "uncompressed page holds %d chunks, want %d",
				ps.alloc, metadata.MaxChunks)
		}
		if ps.meta.InflatedCount != 0 {
			flag(audit.InflatedBad, page, "uncompressed page has %d inflation pointers",
				ps.meta.InflatedCount)
		}
	} else {
		if c.packedBytes(ps)+int(ps.meta.InflatedCount)*memctl.LineBytes > ps.meta.AllocatedBytes() {
			flag(audit.InflatedBad, page, "packed %d B + %d inflated lines overrun %d allocated bytes",
				c.packedBytes(ps), ps.meta.InflatedCount, ps.meta.AllocatedBytes())
		}
		for i := 1; i < int(ps.meta.InflatedCount); i++ {
			for j := 0; j < i; j++ {
				if ps.meta.Inflated[i] == ps.meta.Inflated[j] {
					flag(audit.InflatedBad, page, "line %d appears twice in the inflation room",
						ps.meta.Inflated[i])
					i = int(ps.meta.InflatedCount) // stop after first duplicate
					break
				}
			}
		}
		for line := 0; line < metadata.LinesPerPage; line++ {
			if _, ok := ps.meta.IsInflated(line); ok {
				continue
			}
			if ps.actual[line] > ps.meta.LineSizeCode[line] {
				flag(audit.SizeShadow, page, "line %d compresses to code %d but its slot is code %d",
					line, ps.actual[line], ps.meta.LineSizeCode[line])
				break
			}
		}
	}
	free := ps.meta.AllocatedBytes() - c.freshBytes(ps)
	if free < 0 {
		free = 0
	}
	if free > memctl.PageSize-1 {
		free = memctl.PageSize - 1
	}
	if int(ps.meta.FreeSpace) != free {
		flag(audit.FreeSpaceDrift, page, "FreeSpace %d, recomputed %d", ps.meta.FreeSpace, free)
	}
}

// repairPage rebuilds one OSPA page from the authoritative line data
// (memctl.LineSource) — the recovery Compresso's design admits: the
// data itself is never lost, so translation metadata can always be
// reconstructed by recompressing the page. Whatever the current entry
// references is released defensively, fresh chunks are allocated
// outside the injection hooks, every stored line is rewritten (charged
// to Stats.RepairAccesses, not the paper's extra-access categories),
// and the cached entry and packed backing are resynchronized.
// forceUncompressed degrades the page to the flat 8-chunk layout
// (counted in Stats.RepairFallbacks).
func (c *Controller) repairPage(now uint64, page uint64, forceUncompressed bool) {
	ps := &c.pages[page]
	c.releasePageChunks(ps)
	ps.meta.MPFN = [metadata.MaxChunks]uint32{}
	ps.meta.PageSizeCode = 0
	ps.meta.InflatedCount = 0
	ps.meta.Inflated = [metadata.MaxInflated]uint8{}
	c.clearCorrupt(page)
	c.stats.PagesRepaired++
	defer func() {
		c.mdc.Drop(page)
		c.storeBacking(page)
		c.stats.RepairAccesses++
		c.port.Access(now, page, true) // the entry's metadata line
	}()

	if !ps.meta.Valid {
		// Never-touched or discarded page: the repaired state is empty.
		ps.meta = metadata.Entry{}
		ps.actual = [metadata.LinesPerPage]uint8{}
		return
	}

	fresh := 0
	for line := 0; line < metadata.LinesPerPage; line++ {
		code := c.sourceCode(page, line)
		ps.actual[line] = code
		fresh += c.cfg.Bins.SizeOf(int(code))
	}
	if fresh == 0 {
		ps.meta.Zero = true
		ps.meta.Compressed = true
		ps.meta.LineSizeCode = [metadata.LinesPerPage]uint8{}
		ps.meta.FreeSpace = 0
		return
	}

	need := c.allowedChunks(ceilDiv(fresh, metadata.ChunkSize))
	uncompressed := forceUncompressed || need >= metadata.MaxChunks
	if uncompressed {
		need = metadata.MaxChunks
	}
	for !c.tryResize(ps, need) {
		if c.cfg.OnMemoryPressure == nil || !c.cfg.OnMemoryPressure(need) {
			panic("core: out of machine memory during page repair")
		}
	}
	if forceUncompressed {
		c.stats.RepairFallbacks++
	}
	ps.meta.Zero = false
	ps.meta.Compressed = !uncompressed
	ps.meta.LineSizeCode = ps.actual
	c.updateFreeSpace(ps)

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
		c.stats.RepairAccesses++
		c.port.Access(now, c.dataMachineLine(ps, off), true)
	}
}

// releasePageChunks returns every chunk the page's entry references to
// the allocator, defensively: injected faults can leave duplicate
// pointers or references to already-freed chunks, either of which the
// allocator rightly panics on in a clean build.
func (c *Controller) releasePageChunks(ps *pageState) {
	if c.chunks != nil {
		var seen [metadata.MaxChunks]uint32
		n := 0
		for i := 0; i < ps.alloc && i < metadata.MaxChunks; i++ {
			ch := ps.meta.MPFN[i]
			dup := false
			for j := 0; j < n; j++ {
				if seen[j] == ch {
					dup = true
					break
				}
			}
			if dup || !c.chunks.IsUsed(ch) {
				continue
			}
			seen[n] = ch
			n++
			c.chunks.Free(ch)
		}
	} else if ps.alloc > 0 && c.buddy.IsAllocated(ps.meta.MPFN[0]) {
		c.buddy.Free(ps.meta.MPFN[0])
	}
	ps.alloc = 0
}

// tryResize allocates exactly n chunks for a page that currently holds
// none, bypassing the injection hooks (recovery is modelled clean) and
// reporting failure instead of invoking the memory-pressure path.
func (c *Controller) tryResize(ps *pageState, n int) bool {
	if n > 0 {
		if c.chunks != nil {
			for i := 0; i < n; i++ {
				ch, ok := c.chunks.Alloc()
				if !ok {
					for j := 0; j < i; j++ {
						c.chunks.Free(ps.meta.MPFN[j])
						ps.meta.MPFN[j] = 0
					}
					return false
				}
				ps.meta.MPFN[i] = ch
			}
		} else {
			base, ok := c.buddy.Alloc(n * metadata.ChunkSize)
			if !ok {
				return false
			}
			ps.meta.MPFN[0] = base
		}
	}
	ps.alloc = n
	if n > 0 {
		ps.meta.PageSizeCode = uint8(n - 1)
	} else {
		ps.meta.PageSizeCode = 0
	}
	return true
}

// entryAdoptable reports whether a just-unpacked entry can safely
// replace the live entry of ps: the structural fields that drive
// allocator interaction and address arithmetic must agree with the
// controller's bookkeeping. Fields that only degrade fidelity (slot
// codes, free space, in-bounds inflation pointers) are adopted as-is —
// that corruption is survivable and left for the auditor.
func (c *Controller) entryAdoptable(ps *pageState, e *metadata.Entry) bool {
	if e.Valid != ps.meta.Valid || e.Zero != ps.meta.Zero || e.Compressed != ps.meta.Compressed {
		return false
	}
	if e.Chunks() != ps.alloc {
		return false
	}
	n := ps.alloc
	if n > metadata.MaxChunks {
		n = metadata.MaxChunks
	}
	if c.buddy != nil && n > 1 {
		n = 1 // only the block base is meaningful
	}
	for i := 0; i < n; i++ {
		if e.MPFN[i] != ps.meta.MPFN[i] {
			return false
		}
	}
	if e.Valid && !e.Zero && e.Compressed {
		packed := 0
		for _, code := range e.LineSizeCode {
			packed += c.cfg.Bins.SizeOf(int(code))
		}
		if packed+int(e.InflatedCount)*memctl.LineBytes > e.AllocatedBytes() {
			return false
		}
	}
	return true
}

// freeChunk releases one chunk on the normal shrink path. With
// injection enabled, a duplicated pointer may reference a chunk that
// was already released; the clean allocator rightly panics on double
// frees, so the guarded path counts the inconsistency and leaves the
// cleanup to the auditor instead.
func (c *Controller) freeChunk(ch uint32) {
	if c.inj.Enabled() && !c.chunks.IsUsed(ch) {
		c.stats.CorruptionsDetected++
		return
	}
	c.chunks.Free(ch)
}

// clearCorrupt forgets the corrupt-line marks of one page (its stored
// bytes were just rewritten from the authoritative source or freed).
func (c *Controller) clearCorrupt(page uint64) {
	if len(c.corrupt) == 0 {
		return
	}
	base := page * metadata.LinesPerPage
	for i := uint64(0); i < metadata.LinesPerPage; i++ {
		delete(c.corrupt, base+i)
	}
}
