package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fastpathCodecs is every codec variant in the package; the fast-path
// contracts (aliasing safety, SizeOnly equality, allocation freedom)
// are asserted over all of them.
var fastpathCodecs = []Codec{BPC{}, BPC{DisableBestOf: true}, BDI{}, FPC{}, CPack{}, LZ{}}

// testLines returns named deterministic 64-byte lines covering the
// paper's data classes: zero, pointer-heavy, integer, floating point,
// repeated value, text, and incompressible.
func testLines() map[string][]byte {
	lines := map[string][]byte{}

	lines["zero"] = make([]byte, LineSize)

	ptr := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(ptr[i*8:], 0x00007f8a_12340000+uint64(i)*0x40)
	}
	lines["pointer"] = ptr

	seq := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(seq[i*4:], uint32(1000+i*3))
	}
	lines["sequential"] = seq

	flt := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(flt[i*8:], math.Float64bits(3.14159+float64(i)*0.001))
	}
	lines["float"] = flt

	rep := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(rep[i*8:], 0xdeadbeef_cafef00d)
	}
	lines["repeat"] = rep

	txt := make([]byte, LineSize)
	copy(txt, []byte("pragmatic main memory compression, micro 2018, cache line data."))
	lines["text"] = txt

	// xorshift64 noise: incompressible under every codec.
	rnd := make([]byte, LineSize)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 8; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(rnd[i*8:], x)
	}
	lines["random"] = rnd

	return lines
}

// TestCompressAliasedDst pins the aliasing guarantee documented on
// Codec.Compress: dst may be the same slice as src. The capacity
// tracker and CompressPoints profiler historically compressed page
// buffers in place; a codec that wrote dst before finishing reading
// src would corrupt its own input and fail this round trip.
func TestCompressAliasedDst(t *testing.T) {
	for _, c := range fastpathCodecs {
		for name, line := range testLines() {
			// Reference result from a non-aliased call.
			var sep [LineSize]byte
			wantN := c.Compress(sep[:], line)

			buf := make([]byte, LineSize)
			copy(buf, line)
			gotN := c.Compress(buf, buf)
			if gotN != wantN {
				t.Errorf("%s/%s: aliased Compress = %d, separate = %d", c.Name(), name, gotN, wantN)
				continue
			}
			if !bytes.Equal(buf[:gotN], sep[:wantN]) {
				t.Errorf("%s/%s: aliased Compress bytes diverge from separate-buffer result", c.Name(), name)
				continue
			}
			out := make([]byte, LineSize)
			if err := c.Decompress(out, buf[:gotN]); err != nil {
				t.Errorf("%s/%s: decompress after aliased compress: %v", c.Name(), name, err)
				continue
			}
			if !bytes.Equal(out, line) {
				t.Errorf("%s/%s: aliased compress corrupted the line", c.Name(), name)
			}
		}
	}
}

// TestCompressShortDstPanics pins the dst-capacity half of the
// Compress contract now enforced by checkCompressArgs.
func TestCompressShortDstPanics(t *testing.T) {
	for _, c := range fastpathCodecs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Compress with short dst did not panic", c.Name())
				}
			}()
			var line [LineSize]byte
			var short [LineSize - 1]byte
			c.Compress(short[:], line[:])
		}()
	}
}

// TestRatioZeroStreamBounded is the regression test for the Ratio
// clamp bug: an all-zero stream used to charge one byte for the WHOLE
// stream, so the reported ratio grew without bound in the sample count
// (len(lines)*64/1). The intended semantics charge a metadata-sized
// remainder per line, bounding the ratio at LineSize regardless of how
// many lines are sampled.
func TestRatioZeroStreamBounded(t *testing.T) {
	for _, n := range []int{1, 4, 1024} {
		lines := make([][]byte, n)
		for i := range lines {
			lines[i] = make([]byte, LineSize)
		}
		got := Ratio(BPC{}, CompressoBins, lines)
		if got != LineSize {
			t.Errorf("Ratio over %d zero lines = %v, want %v (must not scale with sample count)", n, got, float64(LineSize))
		}
	}
}

// TestSizeOnlyMatchesCompress checks the SizeOnly contract on the
// deterministic line set (FuzzCodecSizeOnly extends this to random
// lines).
func TestSizeOnlyMatchesCompress(t *testing.T) {
	for _, c := range fastpathCodecs {
		for name, line := range testLines() {
			var dst [LineSize]byte
			want := c.Compress(dst[:], line)
			if got := SizeOnly(c, line); got != want {
				t.Errorf("%s/%s: SizeOnly = %d, Compress = %d", c.Name(), name, got, want)
			}
		}
	}
}

// TestSizeOnlyZeroAllocs pins the allocation-free property of the
// size-only path for every codec.
func TestSizeOnlyZeroAllocs(t *testing.T) {
	for _, c := range fastpathCodecs {
		for name, line := range testLines() {
			allocs := testing.AllocsPerRun(100, func() {
				SizeOnly(c, line)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: SizeOnly allocates %v per run, want 0", c.Name(), name, allocs)
			}
		}
	}
}

// TestBPCDecompressZeroAllocs pins allocation freedom of BPC's
// decoder on valid streams of both variants: the planes land in a
// fixed array and the words are rebuilt by the transpose.
func TestBPCDecompressZeroAllocs(t *testing.T) {
	var out [LineSize]byte
	for _, c := range []BPC{{}, {DisableBestOf: true}} {
		for name, line := range testLines() {
			var comp [LineSize]byte
			n := c.Compress(comp[:], line)
			allocs := testing.AllocsPerRun(100, func() {
				if err := c.Decompress(out[:], comp[:n]); err != nil {
					t.Fatalf("%s/%s: %v", c.Name(), name, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: Decompress allocates %v per run, want 0", c.Name(), name, allocs)
			}
		}
	}
}

// benchLines is the mix used by the kernel microbenchmarks: one
// integer, one pointer, one float, one incompressible line — roughly
// the composition the experiments sweep over.
func benchLines() [][]byte {
	m := testLines()
	return [][]byte{m["sequential"], m["pointer"], m["float"], m["random"]}
}

func benchCompress(b *testing.B, c Codec) {
	lines := benchLines()
	var dst [LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(dst[:], lines[i%len(lines)])
	}
}

func benchSizeOnly(b *testing.B, c Codec) {
	lines := benchLines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SizeOnly(c, lines[i%len(lines)])
	}
}

func BenchmarkBPCCompress(b *testing.B) { benchCompress(b, BPC{}) }
func BenchmarkBPCSizeOnly(b *testing.B) { benchSizeOnly(b, BPC{}) }

func BenchmarkBDICompress(b *testing.B) { benchCompress(b, BDI{}) }
func BenchmarkBDISizeOnly(b *testing.B) { benchSizeOnly(b, BDI{}) }

func BenchmarkFPCCompress(b *testing.B) { benchCompress(b, FPC{}) }
func BenchmarkFPCSizeOnly(b *testing.B) { benchSizeOnly(b, FPC{}) }

func BenchmarkCPackCompress(b *testing.B) { benchCompress(b, CPack{}) }
func BenchmarkCPackSizeOnly(b *testing.B) { benchSizeOnly(b, CPack{}) }

func BenchmarkLZCompress(b *testing.B) { benchCompress(b, LZ{}) }
func BenchmarkLZSizeOnly(b *testing.B) { benchSizeOnly(b, LZ{}) }
