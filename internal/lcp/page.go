package lcp

import (
	"fmt"
	"math"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Page is one OSPA page in LCP-packed form: every non-exception line
// sits at line*Target, and the lines that do not fit the target follow
// as uncompressed 64 B exception slots. This package's controller and
// dmc's hot tier share it.
type Page struct {
	Valid bool
	Zero  bool
	// Target is the size in bytes every non-exception line occupies.
	Target uint8
	Base   uint32 // buddy block base chunk
	Chunks int    // 1, 2, 4 or 8
	// exc maps exception-region slots to line indices (in slot order;
	// a line index is below 64, so one byte holds it); excMask has bit
	// line set for every line in exc. Pack and AddException are their
	// only writers, which keeps them in sync.
	exc     []uint8
	excMask uint64
	// Sizes shadows each line's current binned size in bytes.
	Sizes [metadata.LinesPerPage]uint8
}

// ChooseTarget picks the target for lines of the given sizes in bytes
// (the LCP paper's compression step): the bin size minimizing
// len(sizes)*target plus one exception slot per line larger than it.
// Ties keep the smaller target, and zero lines are never exceptions.
// It returns the target and the bytes that layout occupies, and does
// not allocate.
func ChooseTarget(bins compress.Bins, sizes []uint8) (target, bytes int) {
	bytes = math.MaxInt
	for code := 0; code < bins.Count(); code++ {
		tb := bins.SizeOf(code)
		exc := 0
		for _, s := range sizes {
			if int(s) > tb {
				exc++
			}
		}
		if total := len(sizes)*tb + exc*memctl.LineBytes; total < bytes {
			target, bytes = tb, total
		}
	}
	return target, bytes
}

// Pack lays the page out afresh from Sizes: the ChooseTarget target,
// with the lines that exceed it as exceptions in line order.
func (p *Page) Pack(bins compress.Bins) {
	target, _ := ChooseTarget(bins, p.Sizes[:])
	p.Target = uint8(target)
	p.exc = p.exc[:0]
	p.excMask = 0
	for line, s := range p.Sizes {
		if s > p.Target {
			p.exc = append(p.exc, uint8(line))
			p.excMask |= 1 << line
		}
	}
}

// ExcSlot returns line's exception slot, if it has one. A line without
// one costs a single bit test.
func (p *Page) ExcSlot(line int) (int, bool) {
	if p.excMask&(1<<line) == 0 {
		return 0, false
	}
	for i, l := range p.exc {
		if int(l) == line {
			return i, true
		}
	}
	return 0, false
}

// LineOffset returns a non-exception line's offset: the whole point of
// LCP-packing is that this is a single multiply.
func (p *Page) LineOffset(line int) int { return line * int(p.Target) }

// ExcOffset returns the offset of exception slot e.
func (p *Page) ExcOffset(e int) int {
	return metadata.LinesPerPage*int(p.Target) + e*memctl.LineBytes
}

// Offset returns line's offset, in its exception slot if it has one.
func (p *Page) Offset(line int) int {
	if slot, ok := p.ExcSlot(line); ok {
		return p.ExcOffset(slot)
	}
	return p.LineOffset(line)
}

// Bytes returns the bytes the current layout occupies.
func (p *Page) Bytes() int {
	return metadata.LinesPerPage*int(p.Target) + len(p.exc)*memctl.LineBytes
}

// AddException appends line to the exception region when the page's
// block has room for one more slot, returning the slot.
func (p *Page) AddException(line int) (int, bool) {
	if p.Bytes()+memctl.LineBytes > p.Chunks*metadata.ChunkSize {
		return 0, false
	}
	p.exc = append(p.exc, uint8(line))
	p.excMask |= 1 << line
	return len(p.exc) - 1, true
}

// excReserve is the exception-region headroom (in bytes) included when
// sizing a page: LCP provisions room for a few exceptions up front so
// that the first overflow is not immediately a page fault. Without it,
// aligned targets (8/32/64 B) multiply to exactly the page sizes and
// every overflow faults.
const excReserve = 2 * memctl.LineBytes

// SizeFor returns the chunk count of the LCP page size (512 B / 1 K /
// 2 K / 4 K) allocated to a layout of layoutBytes: the layout plus the
// exception reserve, capped at the maximum page.
func SizeFor(layoutBytes int) int {
	if layoutBytes > memctl.PageSize {
		panic(fmt.Sprintf("lcp: %d bytes exceed 4 KB page", layoutBytes))
	}
	t := min(layoutBytes+excReserve, memctl.PageSize)
	chunks := 1
	for chunks*metadata.ChunkSize < t {
		chunks *= 2
	}
	return chunks
}
