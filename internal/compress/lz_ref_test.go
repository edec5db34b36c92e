package compress

import (
	"bytes"
	"encoding/binary"
	"testing"

	"compresso/internal/bitstream"
	"compresso/internal/rng"
)

// lzBestMatchRef is the brute-force greedy matcher the hash-chain
// matcher replaces: it tries every offset in the window, nearest
// first, comparing byte by byte, and keeps the first longest match.
func lzBestMatchRef(src []byte, i, offBits int) (bestLen, bestOff int) {
	maxBack := i
	if maxBack > 1<<offBits {
		maxBack = 1 << offBits
	}
	for off := 1; off <= maxBack; off++ {
		l := 0
		for i+l < len(src) && l < lzMaxMatch && src[i+l] == src[i-off+l] {
			l++
		}
		if l > bestLen {
			bestLen, bestOff = l, off
		}
	}
	return bestLen, bestOff
}

// lzCompressBlockRef is LZCompressBlock built on lzBestMatchRef.
func lzCompressBlockRef(dst, src []byte) int {
	if len(src) == 0 || IsZeroLine(src) {
		return 0
	}
	offBits := lzOffBits(len(src))
	w := bitstream.NewWriter(len(src))
	for i := 0; i < len(src); {
		bestLen, bestOff := lzBestMatchRef(src, i, offBits)
		if bestLen >= lzMinMatch {
			w.WriteBit(1)
			w.WriteBits(uint64(bestOff-1), offBits)
			w.WriteBits(uint64(bestLen-lzMinMatch), lzLenBits)
			i += bestLen
		} else {
			w.WriteBit(0)
			w.WriteBits(uint64(src[i]), 8)
			i++
		}
		if w.Len() >= len(src) {
			copy(dst[:len(src)], src)
			return len(src)
		}
	}
	copy(dst, w.Bytes())
	return w.Len()
}

// checkLZAgainstRef walks the greedy parse of src with both matchers
// and fails on the first position where they disagree, then compares
// the compressed streams. A reference match shorter than lzMinMatch is
// a literal, which the hash-chain matcher reports as (0, 0).
func checkLZAgainstRef(t *testing.T, src []byte) {
	t.Helper()
	var tables lzBlockTables
	m := newLZMatcher(src, tables.head[:], tables.prev[:])
	offBits := lzOffBits(len(src))
	for i := 0; i < len(src); {
		wantLen, wantOff := lzBestMatchRef(src, i, offBits)
		if wantLen < lzMinMatch {
			wantLen, wantOff = 0, 0
		}
		gotLen, gotOff := m.match(i)
		if gotLen != wantLen || gotOff != wantOff {
			t.Fatalf("block %d B, pos %d: match (len %d, off %d), reference (len %d, off %d)",
				len(src), i, gotLen, gotOff, wantLen, wantOff)
		}
		i += max(wantLen, 1)
	}
	got := make([]byte, len(src))
	want := make([]byte, len(src))
	n := LZCompressBlock(got, src)
	nRef := lzCompressBlockRef(want, src)
	if n != nRef || !bytes.Equal(got[:n], want[:nRef]) {
		t.Fatalf("block %d B: LZCompressBlock gives %d B, reference %d B, or the streams differ", len(src), n, nRef)
	}
}

// FuzzLZMatchEquivalence pins the hash-chain matcher to the brute-force
// reference: the same (length, offset) at every greedy parse position,
// and the same compressed stream.
func FuzzLZMatchEquivalence(f *testing.F) {
	fuzzSeeds(f)
	f.Add(lzTestBlock())
	f.Add(bytes.Repeat([]byte("abcabdabcabe"), 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > lzStackBlock {
			return
		}
		checkLZAgainstRef(t, data)
	})
}

// TestLZMatchesReferenceOnLowAlphabetBlocks drives the reference check
// over blocks drawn from two to four symbols, where long chains, hash
// collisions, overlapping matches and equal-length ties are common.
func TestLZMatchesReferenceOnLowAlphabetBlocks(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 300; trial++ {
		src := make([]byte, 1+r.Intn(2048))
		alphabet := 2 + r.Intn(3)
		for i := range src {
			src[i] = byte(r.Intn(alphabet)) + 'a'
		}
		checkLZAgainstRef(t, src)
	}
	checkLZAgainstRef(t, lzTestBlock())
}

// lzTestBlock is a structured 1 KiB block, the MXT/DMC granularity:
// the package's test lines in a fixed order, each reused with its
// first word varied, so matches span lines as they do in real pages.
func lzTestBlock() []byte {
	lines := testLines()
	order := []string{"sequential", "pointer", "float", "text", "repeat", "random", "zero"}
	block := make([]byte, 0, 16*LineSize)
	for k := 0; k < 16; k++ {
		line := bytes.Clone(lines[order[k%len(order)]])
		binary.LittleEndian.PutUint32(line, binary.LittleEndian.Uint32(line)+uint32(k))
		block = append(block, line...)
	}
	return block
}

// TestLZBlockZeroAllocs pins the size path at the MXT/DMC block size
// and at the largest stack-backed block: the matcher's chains live on
// the stack, so sizing allocates nothing.
func TestLZBlockZeroAllocs(t *testing.T) {
	for _, src := range [][]byte{lzTestBlock(), bytes.Repeat(lzTestBlock(), lzStackBlock/1024)} {
		if allocs := testing.AllocsPerRun(20, func() { LZSizeBlock(src) }); allocs != 0 {
			t.Errorf("LZSizeBlock(%d B) allocates %v per run, want 0", len(src), allocs)
		}
	}
}

// BenchmarkLZBlockSizeOnly measures LZSizeBlock on one structured
// 1 KiB block, the granularity the MXT and DMC backends price.
func BenchmarkLZBlockSizeOnly(b *testing.B) {
	block := lzTestBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LZSizeBlock(block)
	}
}
