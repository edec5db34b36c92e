// Package metadata implements Compresso's per-OSPA-page translation
// metadata (§III of the paper): the bit-exact 64-byte entry format and
// the memory-controller metadata cache with the half-entry optimization
// of §IV-B5.
//
// Every main-memory access in a Compresso system consults one of these
// entries to translate an OSPA line address to its machine physical
// location. Entries live in a dedicated MPA region (64 B per 4 KB OSPA
// page, a 1.6% overhead) and are cached in the controller.
package metadata

import (
	"encoding/binary"
	"fmt"
)

// Geometry constants from the paper.
const (
	// EntrySize is the metadata entry size in bytes (one cache line,
	// so an entry miss costs exactly one memory access).
	EntrySize = 64

	// HalfEntrySize is the portion cached for uncompressed pages: the
	// control word and chunk pointers fit in the first half, and all
	// line sizes are implicitly 64 B.
	HalfEntrySize = EntrySize / 2

	// MaxChunks is the number of 512 B machine chunks a page can span.
	MaxChunks = 8

	// MaxInflated is the number of inflation-room pointers (§III).
	MaxInflated = 17

	// LinesPerPage is the number of cache lines per 4 KB OSPA page.
	LinesPerPage = 64

	// ChunkSize is the MPA allocation unit in bytes.
	ChunkSize = 512

	// PageSize is the fixed OSPA page size in bytes.
	PageSize = 4096

	// MPFNBits is the width of a machine chunk pointer: 28 bits
	// address 2^28 512 B chunks = 128 GB of machine memory while
	// letting the control word and all eight pointers fit the first
	// 32 bytes of the entry (the half-entry boundary).
	MPFNBits = 28
)

// Entry is the decoded form of one metadata entry.
//
// Packed layout (MSB-first bit order within each half):
//
//	Half 1 (bytes 0..31):
//	  valid(1) zero(1) compressed(1) pageSizeCode(3) inflatedCount(6)
//	  freeSpace(12) spare(8) mpfn[8](28 each)
//	Half 2 (bytes 32..63):
//	  lineSizeCode[64](2 each)  inflated[17](6 each)  spare(26)
type Entry struct {
	Valid      bool // OSPA page is mapped in MPA
	Zero       bool // page is all zeros (no MPA storage)
	Compressed bool // false: page stored uncompressed (8 chunks)

	// PageSizeCode encodes the allocated size: (code+1) * 512 bytes,
	// i.e. the number of allocated chunks minus one.
	PageSizeCode uint8

	// InflatedCount is the number of valid inflation-room pointers.
	InflatedCount uint8

	// FreeSpace tracks the reclaimable bytes in the page, updated on
	// underflows so repacking can be triggered cheaply (§IV-B4).
	FreeSpace uint16

	// MPFN holds the machine chunk numbers backing the page; entries
	// past the allocated count are meaningless.
	MPFN [MaxChunks]uint32

	// LineSizeCode holds the 2-bit compressed-size bin code per line.
	LineSizeCode [LinesPerPage]uint8

	// Inflated lists the line indices stored uncompressed in the
	// inflation room, in room order; only the first InflatedCount are
	// valid.
	Inflated [MaxInflated]uint8
}

// Chunks returns the number of allocated 512 B chunks.
func (e *Entry) Chunks() int {
	if !e.Valid || e.Zero {
		return 0
	}
	return int(e.PageSizeCode) + 1
}

// AllocatedBytes returns the page's MPA footprint in bytes.
func (e *Entry) AllocatedBytes() int { return e.Chunks() * ChunkSize }

// Pack encodes the entry into dst, which must hold EntrySize bytes.
//
// The codec works on the entry as eight big-endian 64-bit words: half 1
// is words 0-3 (control word in the top 32 bits of word 0, then the
// eight 28-bit MPFNs, two of which straddle word boundaries) and half
// 2 is words 4-7 (32 line size codes per word in 4 and 5, then the 17
// inflation pointers across 6 and 7). Every field sits at a fixed bit
// offset, so each is one constant shift and mask.
func (e *Entry) Pack(dst []byte) {
	if len(dst) < EntrySize {
		panic(fmt.Sprintf("metadata: Pack into %d bytes", len(dst)))
	}
	var w [EntrySize / 8]uint64
	w[0] = bit(e.Valid)<<63 | bit(e.Zero)<<62 | bit(e.Compressed)<<61 |
		uint64(e.PageSizeCode)<<58 | uint64(e.InflatedCount)<<52 | uint64(e.FreeSpace)<<40 |
		uint64(e.MPFN[0])<<4 | uint64(e.MPFN[1])>>24
	w[1] = uint64(e.MPFN[1])<<40 | uint64(e.MPFN[2])<<12 | uint64(e.MPFN[3])>>16
	w[2] = uint64(e.MPFN[3])<<48 | uint64(e.MPFN[4])<<20 | uint64(e.MPFN[5])>>8
	w[3] = uint64(e.MPFN[5])<<56 | uint64(e.MPFN[6])<<28 | uint64(e.MPFN[7])
	// The loops OR each array's fields together on the way: a field is
	// out of range exactly when the OR reaches past the field's width,
	// and validate only runs to name it.
	var lo, hi uint64
	var codes, lines uint8
	for i := range LinesPerPage / 2 {
		c, d := e.LineSizeCode[i], e.LineSizeCode[LinesPerPage/2+i]
		lo, hi = lo<<2|uint64(c), hi<<2|uint64(d)
		codes |= c | d
	}
	w[4], w[5] = lo, hi
	lo, hi = 0, uint64(e.Inflated[10])
	for _, l := range e.Inflated[:10] {
		lo = lo<<6 | uint64(l)
		lines |= l
	}
	for _, l := range e.Inflated[11:] {
		hi = hi<<6 | uint64(l)
		lines |= l
	}
	lines |= e.Inflated[10]
	w[6], w[7] = lo<<4|uint64(e.Inflated[10])>>2, hi<<26 // spare
	mpfns := e.MPFN[0] | e.MPFN[1] | e.MPFN[2] | e.MPFN[3] | e.MPFN[4] | e.MPFN[5] | e.MPFN[6] | e.MPFN[7]
	if e.PageSizeCode >= MaxChunks || e.InflatedCount > MaxInflated || e.FreeSpace >= 1<<freeSpaceBits ||
		mpfns >= 1<<MPFNBits || codes >= 4 || lines >= LinesPerPage {
		e.validate()
	}
	for i, v := range w {
		binary.BigEndian.PutUint64(dst[8*i:], v)
	}
}

// bit is b as 0 or 1.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *Entry) validate() {
	if e.PageSizeCode >= MaxChunks {
		panic(fmt.Sprintf("metadata: page size code %d", e.PageSizeCode))
	}
	if e.InflatedCount > MaxInflated {
		panic(fmt.Sprintf("metadata: inflated count %d", e.InflatedCount))
	}
	if e.FreeSpace >= 1<<freeSpaceBits {
		panic(fmt.Sprintf("metadata: free space %d exceeds %d bits", e.FreeSpace, freeSpaceBits))
	}
	for _, m := range e.MPFN {
		if m >= 1<<MPFNBits {
			panic(fmt.Sprintf("metadata: MPFN %#x exceeds %d bits", m, MPFNBits))
		}
	}
	for _, c := range e.LineSizeCode {
		if c >= 4 {
			panic(fmt.Sprintf("metadata: line size code %d", c))
		}
	}
	for _, l := range e.Inflated {
		if l >= LinesPerPage {
			panic(fmt.Sprintf("metadata: inflated line %d", l))
		}
	}
}

// freeSpaceBits is the width of the FreeSpace field. It holds at most
// PageSize-1, where the controller caps a page's free bytes.
const freeSpaceBits = 12

// Unpack decodes an entry from src (at least EntrySize bytes), in the
// word layout Pack describes.
func Unpack(src []byte) (Entry, error) {
	var e Entry
	if len(src) < EntrySize {
		return e, fmt.Errorf("metadata: unpack from %d bytes", len(src))
	}
	var w [EntrySize / 8]uint64
	for i := range w {
		w[i] = binary.BigEndian.Uint64(src[8*i:])
	}
	const mpfn = 1<<MPFNBits - 1
	e.Valid = w[0]>>63 != 0
	e.Zero = w[0]>>62&1 != 0
	e.Compressed = w[0]>>61&1 != 0
	e.PageSizeCode = uint8(w[0] >> 58 & 7)
	e.InflatedCount = uint8(w[0] >> 52 & 63)
	e.FreeSpace = uint16(w[0] >> 40 & (1<<freeSpaceBits - 1))
	e.MPFN[0] = uint32(w[0] >> 4 & mpfn)
	e.MPFN[1] = uint32((w[0]<<24 | w[1]>>40) & mpfn)
	e.MPFN[2] = uint32(w[1] >> 12 & mpfn)
	e.MPFN[3] = uint32((w[1]<<16 | w[2]>>48) & mpfn)
	e.MPFN[4] = uint32(w[2] >> 20 & mpfn)
	e.MPFN[5] = uint32((w[2]<<8 | w[3]>>56) & mpfn)
	e.MPFN[6] = uint32(w[3] >> 28 & mpfn)
	e.MPFN[7] = uint32(w[3] & mpfn)
	lo, hi := w[4], w[5]
	for i := range LinesPerPage / 2 {
		e.LineSizeCode[i] = uint8(lo >> 62)
		e.LineSizeCode[LinesPerPage/2+i] = uint8(hi >> 62)
		lo, hi = lo<<2, hi<<2
	}
	lo, hi = w[6], w[7]
	for i := range 10 {
		e.Inflated[i] = uint8(lo >> 58)
		lo <<= 6
	}
	e.Inflated[10] = uint8(lo>>58 | hi>>62)
	hi <<= 2
	for i := 11; i < MaxInflated; i++ {
		e.Inflated[i] = uint8(hi >> 58)
		hi <<= 6
	}
	if e.InflatedCount > MaxInflated {
		return e, fmt.Errorf("metadata: inflated count %d out of range", e.InflatedCount)
	}
	for i := uint8(0); i < e.InflatedCount; i++ {
		if e.Inflated[i] >= LinesPerPage {
			return e, fmt.Errorf("metadata: inflated pointer %d out of range", e.Inflated[i])
		}
	}
	return e, nil
}

// IsInflated reports whether line is in the inflation room and, if so,
// its position there.
func (e *Entry) IsInflated(line int) (pos int, ok bool) {
	for i := 0; i < int(e.InflatedCount); i++ {
		if int(e.Inflated[i]) == line {
			return i, true
		}
	}
	return 0, false
}

// AddInflated appends a line to the inflation room, returning its
// position, or ok=false when all pointers are in use.
func (e *Entry) AddInflated(line int) (pos int, ok bool) {
	if e.InflatedCount >= MaxInflated {
		return 0, false
	}
	e.Inflated[e.InflatedCount] = uint8(line)
	e.InflatedCount++
	return int(e.InflatedCount) - 1, true
}
