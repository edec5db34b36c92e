// Package compress implements the cache-line compression algorithms
// evaluated in the Compresso paper (MICRO 2018): Bit-Plane Compression
// (BPC) with the Compresso best-of-transform modification, Base-Delta-
// Immediate (BDI), and Frequent Pattern Compression (FPC).
//
// All codecs operate on 64-byte cache lines (LineSize), the compression
// granularity Compresso uses (§II-A of the paper). Compressed sizes are
// in bytes; the memory controller quantizes them to line-size bins
// (Bins) before placing lines in compressed pages.
//
// Size conventions shared by every codec:
//
//   - A result of 0 bytes means the line is all zeros. Zero lines are
//     served from metadata alone by the controller and occupy no space.
//   - A result of LineSize (64) bytes means the codec stored the line
//     uncompressed because encoding would not have fit in 63 bytes.
//   - Any other size n in (0, 64) is a self-contained codec stream that
//     Decompress can expand given exactly n bytes.
package compress

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the compression granularity in bytes: one CPU cache line.
const LineSize = 64

// WordsPerLine is the number of 32-bit words in a cache line.
const WordsPerLine = LineSize / 4

// Codec compresses and decompresses single cache lines.
type Codec interface {
	// Name identifies the algorithm (e.g. "bpc", "bdi", "fpc").
	Name() string

	// Compress encodes the 64-byte line src into dst and returns the
	// number of bytes written, following the package size conventions.
	// dst must have room for LineSize bytes; it panics if len(src) is
	// not LineSize or len(dst) is short (programmer error, not data
	// error). dst may alias src: every codec fully reads src before
	// writing dst, a guarantee the capacity tracker and CompressPoints
	// profiler historically relied on when recompressing in place and
	// which TestCompressAliasedDst pins for all codecs.
	Compress(dst, src []byte) int

	// Decompress expands a compressed stream of exactly the length
	// returned by Compress into the 64-byte dst. It returns an error
	// if the stream is corrupt.
	Decompress(dst, src []byte) error

	// SizeOnly returns exactly what Compress would return for src,
	// without writing output and without heap allocation. This is the
	// path the simulators live on: the memory controllers, the
	// capacity tracker, CompressPoints profiling and the experiments
	// need only a line's size or bin, never its compressed bytes.
	// Compress is the reference it must equal, which
	// FuzzCodecSizeOnly pins for every codec.
	SizeOnly(src []byte) int
}

// SizeOnly returns the compressed size in bytes of src under codec c.
func SizeOnly(c Codec, src []byte) int { return c.SizeOnly(src) }

// IsZeroLine reports whether all bytes of src are zero. A 64 B line
// is eight little-endian 64-bit loads OR-ed together; longer inputs
// (LZ blocks) are checked a line at a time, and a tail shorter than a
// line byte by byte.
func IsZeroLine(src []byte) bool {
	le := binary.LittleEndian
	for ; len(src) >= LineSize; src = src[LineSize:] {
		l := src[:LineSize]
		if le.Uint64(l[0:])|le.Uint64(l[8:])|le.Uint64(l[16:])|le.Uint64(l[24:])|
			le.Uint64(l[32:])|le.Uint64(l[40:])|le.Uint64(l[48:])|le.Uint64(l[56:]) != 0 {
			return false
		}
	}
	for _, b := range src {
		if b != 0 {
			return false
		}
	}
	return true
}

// Ratio returns the compression ratio (original/compressed) achieved by
// codec c over the given lines after quantizing each line to bins.
// Zero lines count as bins' smallest size (normally 0); a wholly
// incompressible stream approaches 1.0.
func Ratio(c Codec, bins Bins, lines [][]byte) float64 {
	if len(lines) == 0 {
		return 1
	}
	total := 0
	for _, ln := range lines {
		total += bins.Fit(c.SizeOnly(ln))
	}
	if total == 0 {
		// All-zero data compresses "infinitely"; charge a single
		// metadata-sized remainder per line to keep the figure finite
		// and bounded (LineSize) regardless of sample count.
		total = len(lines)
	}
	return float64(len(lines)*LineSize) / float64(total)
}

func checkLine(src []byte) {
	if len(src) != LineSize {
		panic(fmt.Sprintf("compress: line length %d, want %d", len(src), LineSize))
	}
}

// checkCompressArgs enforces the Compress contract: src exactly one
// line, dst with room for a raw copy. dst may alias src.
func checkCompressArgs(dst, src []byte) {
	checkLine(src)
	if len(dst) < LineSize {
		panic(fmt.Sprintf("compress: dst length %d, want >= %d", len(dst), LineSize))
	}
}

func loadWords(src []byte) [WordsPerLine]uint32 {
	var w [WordsPerLine]uint32
	for i := range w {
		// Little-endian, matching the x86 systems the paper models.
		// binary.LittleEndian compiles to a single 32-bit load.
		w[i] = binary.LittleEndian.Uint32(src[i*4:])
	}
	return w
}

func storeWords(dst []byte, w [WordsPerLine]uint32) {
	for i, v := range w {
		binary.LittleEndian.PutUint32(dst[i*4:], v)
	}
}
