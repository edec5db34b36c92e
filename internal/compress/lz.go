package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"compresso/internal/bitstream"
)

// This file implements a small LZ77 compressor. The paper's survey
// (§II-A) notes LZ achieves the highest compression of the candidate
// algorithms but costs too much energy for the inline path; IBM MXT
// used it at 1 KB granularity and DMC uses it for cold pages. We
// provide it both as a 64 B line Codec (LZ) and as block functions for
// the MXT/DMC-style coarse-granularity baselines.
//
// Format, MSB-first: a sequence of tokens until the decoded length
// reaches the block size.
//
//	0 + 8 bits            literal byte
//	1 + off + len         copy (length 3..maxLen) from distance off+1
//
// off is ceil(log2(blockSize)) bits, len is 6 bits storing length-3.

const lzLenBits = 6
const lzMinMatch = 3
const lzMaxMatch = (1 << lzLenBits) - 1 + lzMinMatch

func lzOffBits(blockSize int) int {
	if blockSize <= 1 {
		return 1
	}
	return bits.Len(uint(blockSize - 1))
}

// The matcher below is an exact hash-chain search: it returns what a
// brute-force walk over every prior offset would, the longest match
// and the nearest offset on a tie, at a fraction of the cost.
//
//   - Every position of the block is a candidate, because the window
//     always covers the whole prefix (1<<lzOffBits(n) >= n).
//   - Candidates are chained by a hash of their first lzMinMatch
//     bytes. A position missing from the current chain starts with
//     different bytes, so its match is shorter than lzMinMatch and the
//     parse emits a literal either way.
//   - A chain runs newest first, so the first candidate to reach the
//     longest length is the nearest one, and later ties never replace
//     it.

// lzHashMaxBits caps the head table at 4096 entries. Smaller blocks
// use 1<<bits.Len(n) entries, so a 64 B line clears 128 of them.
const lzHashMaxBits = 12

// lzStackBlock is the largest block whose chains live on the stack;
// larger blocks allocate them.
const lzStackBlock = 4096

// lzMatcher is the candidate index of one block. head holds, per hash,
// the newest inserted position plus one; prev links each position to
// the next older one with the same hash. Zero ends a chain.
type lzMatcher struct {
	src        []byte
	head, prev []int32
	shift      uint
	next       int // first position not yet inserted
}

// lzLineTables and lzBlockTables back a matcher without a heap
// allocation: the first for a 64 B line, the second for blocks up to
// lzStackBlock. Two sizes keep a line from clearing 32 KiB of stack.
type lzLineTables struct {
	head [2 * LineSize]int32
	prev [LineSize]int32
}

type lzBlockTables struct {
	head [1 << lzHashMaxBits]int32
	prev [lzStackBlock]int32
}

// newLZMatcher returns an empty index over src. head must hold
// 1<<min(lzHashMaxBits, bits.Len(len(src))) entries and prev len(src).
// It returns by value so stack-backed tables stay on the stack.
func newLZMatcher(src []byte, head, prev []int32) lzMatcher {
	hashBits := min(lzHashMaxBits, bits.Len(uint(len(src))))
	head = head[:1<<hashBits]
	clear(head)
	return lzMatcher{src: src, head: head, prev: prev[:len(src)], shift: uint(32 - hashBits)}
}

func (m *lzMatcher) hash(p int) uint32 {
	v := uint32(m.src[p]) | uint32(m.src[p+1])<<8 | uint32(m.src[p+2])<<16
	return v * 0x9e3779b1 >> m.shift
}

// match returns the greedy longest match at position i, nearest offset
// on a tie, or (0, 0) when no match reaches lzMinMatch. Positions must
// be queried in increasing order: every position before i, including
// those inside emitted matches, is inserted before the search, and i
// itself right after it.
func (m *lzMatcher) match(i int) (bestLen, bestOff int) {
	src, head, prev := m.src, m.head, m.prev
	if len(src)-i < lzMinMatch {
		return 0, 0
	}
	for ; m.next < i; m.next++ {
		h := m.hash(m.next)
		prev[m.next] = head[h]
		head[h] = int32(m.next + 1)
	}
	h := m.hash(i)
	maxLen := min(lzMaxMatch, len(src)-i)
	bestLen = lzMinMatch - 1
	for c := head[h]; c != 0 && bestLen < maxLen; c = prev[c-1] {
		j := int(c - 1)
		// A longer match must agree at bestLen; test that byte first.
		// A tie fails this test, so the nearest candidate keeps it.
		if src[j+bestLen] != src[i+bestLen] {
			continue
		}
		if l := lzMatchLen(src[j:], src[i:], maxLen); l > bestLen {
			bestLen, bestOff = l, i-j
		}
	}
	prev[i] = head[h]
	head[h] = int32(i + 1)
	m.next = i + 1
	if bestOff == 0 {
		return 0, 0
	}
	return bestLen, bestOff
}

// lzMatchLen returns the length of the common prefix of a and b, up to
// limit, comparing 8 bytes at a time. Both must hold limit bytes.
func lzMatchLen(a, b []byte, limit int) int {
	l := 0
	for ; l+8 <= limit; l += 8 {
		if x := binary.LittleEndian.Uint64(a[l:]) ^ binary.LittleEndian.Uint64(b[l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < limit && a[l] == b[l] {
		l++
	}
	return l
}

// lzParse runs the greedy parse of a nonzero src, writing its tokens
// to w unless w is nil, and returns the stream size in bytes, or
// len(src) as soon as the stream would be no smaller than the block
// (the compressor then stores it raw). The compress and size-only
// paths both run it, so they cannot drift.
func lzParse(src []byte, w *bitstream.Writer) int {
	var m lzMatcher
	switch n := len(src); {
	case n <= LineSize:
		var t lzLineTables
		m = newLZMatcher(src, t.head[:], t.prev[:])
	case n <= lzStackBlock:
		var t lzBlockTables
		m = newLZMatcher(src, t.head[:], t.prev[:])
	default:
		m = newLZMatcher(src, make([]int32, 1<<lzHashMaxBits), make([]int32, n))
	}
	offBits := lzOffBits(len(src))
	nbits := 0
	for i := 0; i < len(src); {
		if l, off := m.match(i); l != 0 {
			nbits += 1 + offBits + lzLenBits
			if w != nil {
				w.WriteBit(1)
				w.WriteBits(uint64(off-1), offBits)
				w.WriteBits(uint64(l-lzMinMatch), lzLenBits)
			}
			i += l
		} else {
			nbits += 1 + 8
			if w != nil {
				w.WriteBit(0)
				w.WriteBits(uint64(src[i]), 8)
			}
			i++
		}
		if (nbits+7)/8 >= len(src) {
			return len(src)
		}
	}
	return (nbits + 7) / 8
}

// LZCompressBlock compresses src into dst following the package size
// conventions generalized to the block size: 0 means all-zero,
// len(src) means stored raw. dst must hold len(src) bytes.
func LZCompressBlock(dst, src []byte) int {
	if len(src) == 0 || IsZeroLine(src) {
		return 0
	}
	w := bitstream.NewWriter(len(src))
	n := lzParse(src, w)
	if n == len(src) {
		copy(dst[:n], src)
		return n
	}
	copy(dst, w.Bytes())
	return n
}

// LZSizeBlock returns exactly what LZCompressBlock would return for
// src without materializing the stream.
func LZSizeBlock(src []byte) int {
	if len(src) == 0 || IsZeroLine(src) {
		return 0
	}
	return lzParse(src, nil)
}

// LZDecompressBlock expands a stream produced by LZCompressBlock into
// dst (whose length is the original block size).
func LZDecompressBlock(dst, src []byte) error {
	switch {
	case len(src) == 0:
		for i := range dst {
			dst[i] = 0
		}
		return nil
	case len(src) == len(dst):
		copy(dst, src)
		return nil
	case len(src) > len(dst):
		return fmt.Errorf("lz: stream longer than block (%d > %d)", len(src), len(dst))
	}
	offBits := lzOffBits(len(dst))
	r := bitstream.NewReader(src)
	i := 0
	for i < len(dst) {
		flag, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("lz: truncated token at byte %d: %w", i, err)
		}
		if flag == 0 {
			b, err := r.ReadBits(8)
			if err != nil {
				return fmt.Errorf("lz: truncated literal: %w", err)
			}
			dst[i] = byte(b)
			i++
			continue
		}
		off, err := r.ReadBits(offBits)
		if err != nil {
			return fmt.Errorf("lz: truncated offset: %w", err)
		}
		l, err := r.ReadBits(lzLenBits)
		if err != nil {
			return fmt.Errorf("lz: truncated length: %w", err)
		}
		dist := int(off) + 1
		length := int(l) + lzMinMatch
		if dist > i {
			return fmt.Errorf("lz: match distance %d beyond %d decoded bytes", dist, i)
		}
		if i+length > len(dst) {
			return fmt.Errorf("lz: match of %d overflows block at %d", length, i)
		}
		for k := 0; k < length; k++ {
			dst[i] = dst[i-dist]
			i++
		}
	}
	return nil
}

// LZ is the 64-byte-line Codec wrapper around the block compressor.
type LZ struct{}

// Name implements Codec.
func (LZ) Name() string { return "lz" }

// Compress implements Codec.
func (LZ) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	return LZCompressBlock(dst, src)
}

// SizeOnly implements Codec.
func (LZ) SizeOnly(src []byte) int {
	checkLine(src)
	return LZSizeBlock(src)
}

// Decompress implements Codec.
func (LZ) Decompress(dst, src []byte) error {
	checkLine(dst)
	return LZDecompressBlock(dst, src)
}
