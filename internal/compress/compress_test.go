package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"compresso/internal/rng"
)

var allCodecs = []Codec{BPC{}, BPC{DisableBestOf: true}, BDI{}, FPC{}}

// mustRoundTrip compresses and decompresses a line, failing the test on
// any mismatch, and returns the compressed size.
func mustRoundTrip(t *testing.T, c Codec, line []byte) int {
	t.Helper()
	var comp [LineSize]byte
	n := c.Compress(comp[:], line)
	if n < 0 || n > LineSize {
		t.Fatalf("%s: compressed size %d out of range", c.Name(), n)
	}
	var out [LineSize]byte
	if err := c.Decompress(out[:], comp[:n]); err != nil {
		t.Fatalf("%s: decompress failed: %v (size %d)", c.Name(), err, n)
	}
	if !bytes.Equal(out[:], line) {
		t.Fatalf("%s: round trip mismatch (size %d)\n in: %x\nout: %x", c.Name(), n, line, out)
	}
	return n
}

func lineOfWords(f func(i int) uint32) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], f(i))
	}
	return line
}

func TestZeroLineAllCodecs(t *testing.T) {
	zero := make([]byte, LineSize)
	for _, c := range allCodecs {
		if n := mustRoundTrip(t, c, zero); n != 0 {
			t.Errorf("%s: zero line compressed to %d bytes, want 0", c.Name(), n)
		}
	}
}

func TestRandomLineStoredRaw(t *testing.T) {
	r := rng.New(99)
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(r.Uint32())
	}
	for _, c := range allCodecs {
		n := mustRoundTrip(t, c, line)
		if n < 48 {
			t.Errorf("%s: random line compressed to %d bytes; suspicious", c.Name(), n)
		}
	}
}

func TestSequentialIntsCompressWell(t *testing.T) {
	// A classic array-of-counters pattern: words i, i+1, i+2, ...
	line := lineOfWords(func(i int) uint32 { return 1000 + uint32(i) })
	for _, c := range allCodecs {
		n := mustRoundTrip(t, c, line)
		t.Logf("%s: sequential ints -> %d bytes", c.Name(), n)
	}
	// BPC must excel here: constant deltas collapse under DBX.
	if n := mustRoundTrip(t, BPC{}, line); n > 8 {
		t.Errorf("bpc: sequential ints compressed to %d bytes, want <= 8", n)
	}
}

func TestRepeatedValueLine(t *testing.T) {
	// 0x67676767 repeats at both byte and word granularity, so every
	// codec has a pattern for it (FPC only matches repeated *bytes*).
	line := lineOfWords(func(i int) uint32 { return 0x67676767 })
	for _, c := range allCodecs {
		n := mustRoundTrip(t, c, line)
		if n > 24 {
			t.Errorf("%s: repeated-value line compressed to %d bytes, want <= 24", c.Name(), n)
		}
	}
	// Word-granularity repetition with distinct bytes defeats FPC but
	// not BDI or BPC.
	line = lineOfWords(func(i int) uint32 { return 0xdeadbeef })
	for _, c := range allCodecs {
		mustRoundTrip(t, c, line)
	}
	if n := SizeOnly(BDI{}, line); n != 9 {
		t.Errorf("bdi: repeated word line -> %d bytes, want 9", n)
	}
	if n := SizeOnly(FPC{}, line); n != LineSize {
		t.Errorf("fpc: repeated 0xdeadbeef -> %d bytes, want raw 64", n)
	}
}

func TestSmallIntegers(t *testing.T) {
	r := rng.New(5)
	line := lineOfWords(func(i int) uint32 { return uint32(r.Intn(200)) })
	for _, c := range allCodecs {
		n := mustRoundTrip(t, c, line)
		if n > 32 {
			t.Errorf("%s: small-int line compressed to %d bytes, want <= 32", c.Name(), n)
		}
	}
}

func TestPointerLikeData(t *testing.T) {
	// 8-byte pointers into the same heap region: high bits shared.
	r := rng.New(6)
	line := make([]byte, LineSize)
	base := uint64(0x00007f8a_12340000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], base+uint64(r.Intn(1<<12)))
	}
	n := mustRoundTrip(t, BDI{}, line)
	if n != 26 { // base8-delta2: 1 + 8 + 16 + 1
		t.Errorf("bdi: pointer line compressed to %d bytes, want 26", n)
	}
	mustRoundTrip(t, BPC{}, line)
	mustRoundTrip(t, FPC{}, line)
}

func TestNegativeValues(t *testing.T) {
	line := lineOfWords(func(i int) uint32 { return uint32(int32(-1 - i)) })
	for _, c := range allCodecs {
		mustRoundTrip(t, c, line)
	}
}

func TestPropertyRoundTripRandomPatterns(t *testing.T) {
	// Generate lines from a grab-bag of generators and round-trip them
	// through every codec.
	gens := []func(r *rng.Rand) []byte{
		func(r *rng.Rand) []byte { // random bytes
			l := make([]byte, LineSize)
			for i := range l {
				l[i] = byte(r.Uint32())
			}
			return l
		},
		func(r *rng.Rand) []byte { // sparse words
			return lineOfWords(func(i int) uint32 {
				if r.Bool(0.7) {
					return 0
				}
				return r.Uint32()
			})
		},
		func(r *rng.Rand) []byte { // strided
			stride := uint32(r.Intn(4096))
			start := r.Uint32()
			return lineOfWords(func(i int) uint32 { return start + uint32(i)*stride })
		},
		func(r *rng.Rand) []byte { // float-like: shared exponent bits
			exp := uint32(r.Intn(64)+96) << 23
			return lineOfWords(func(i int) uint32 { return exp | uint32(r.Intn(1<<23)) })
		},
		func(r *rng.Rand) []byte { // half zero, half random
			return lineOfWords(func(i int) uint32 {
				if i < 8 {
					return 0
				}
				return r.Uint32()
			})
		},
		func(r *rng.Rand) []byte { // small signed values
			return lineOfWords(func(i int) uint32 { return uint32(int32(r.Intn(17) - 8)) })
		},
	}
	f := func(seed uint64, pick uint8) bool {
		r := rng.New(seed)
		line := gens[int(pick)%len(gens)](r)
		for _, c := range allCodecs {
			var comp [LineSize]byte
			n := c.Compress(comp[:], line)
			var out [LineSize]byte
			if err := c.Decompress(out[:], comp[:n]); err != nil {
				return false
			}
			if !bytes.Equal(out[:], line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBPCBestOfNeverWorse(t *testing.T) {
	// The Compresso modification (best of transformed/raw) must never
	// produce a larger encoding than baseline always-transform BPC.
	r := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		line := lineOfWords(func(i int) uint32 {
			switch trial % 4 {
			case 0:
				return r.Uint32()
			case 1:
				return uint32(r.Intn(1000))
			case 2:
				return r.Uint32() & 0xffff0000
			default:
				return 0x40490fdb ^ uint32(r.Intn(1<<12))
			}
		})
		best := SizeOnly(BPC{}, line)
		baseline := SizeOnly(BPC{DisableBestOf: true}, line)
		if best > baseline {
			t.Fatalf("best-of BPC (%d) worse than baseline (%d) on %x", best, baseline, line)
		}
	}
}

func TestBPCBestOfWinsSomewhere(t *testing.T) {
	// §II-A: always applying the transform is suboptimal; the raw
	// bit-plane path must win on some realistic data. Word streams with
	// noisy low bits but stable high bit-planes are such a case.
	r := rng.New(8)
	wins := 0
	for trial := 0; trial < 400; trial++ {
		line := lineOfWords(func(i int) uint32 {
			return 0xabcd0000 | uint32(r.Intn(4))<<8 | uint32(r.Intn(2))
		})
		if SizeOnly(BPC{}, line) < SizeOnly(BPC{DisableBestOf: true}, line) {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("raw bit-plane variant never beat the transform; best-of is vacuous")
	}
}

func TestBDIKnownSizes(t *testing.T) {
	// Repeated 8-byte value -> 9 bytes (header + value).
	rep := make([]byte, LineSize)
	for o := 0; o < LineSize; o += 8 {
		binary.LittleEndian.PutUint64(rep[o:], 0x1122334455667788)
	}
	if n := mustRoundTrip(t, BDI{}, rep); n != 9 {
		t.Errorf("repeat line: %d bytes, want 9", n)
	}
	// base8-delta1: large shared base, tiny deltas -> 18 bytes.
	b8d1 := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b8d1[i*8:], 0x7fff_0000_0000_0100+uint64(i*3))
	}
	if n := mustRoundTrip(t, BDI{}, b8d1); n != 18 {
		t.Errorf("b8d1 line: %d bytes, want 18", n)
	}
}

func TestBDIImmediateZeroBase(t *testing.T) {
	// Mix of near-zero values and values near a large base: requires
	// the two-base (zero + explicit) scheme.
	line := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		v := uint64(i) // near zero
		if i%2 == 1 {
			v = 0x5000_0000_0000_0000 + uint64(i)
		}
		binary.LittleEndian.PutUint64(line[i*8:], v)
	}
	n := mustRoundTrip(t, BDI{}, line)
	if n != 18 {
		t.Errorf("two-base line: %d bytes, want 18 (b8d1)", n)
	}
}

func TestFPCPatternCoverage(t *testing.T) {
	// One line exercising every FPC pattern class.
	words := []uint32{
		0, 0, 0, // zero run
		5,                   // 4-bit SE
		0xffffff80,          // 8-bit SE (-128)
		0x00007fff,          // 16-bit SE
		0xabcd0000,          // padded 16
		0x00400017,          // two halfword bytes
		0x67676767,          // repeated byte
		0xdeadbeef,          // uncompressed
		1, 0xfffffffe, 0, 0, // more small/negative/zero
		0x12345678, 0x7f,
	}
	line := lineOfWords(func(i int) uint32 { return words[i] })
	n := mustRoundTrip(t, FPC{}, line)
	if n >= LineSize {
		t.Errorf("fpc: mixed-pattern line did not compress (%d bytes)", n)
	}
}

func TestDecompressCorruptStreams(t *testing.T) {
	for _, c := range allCodecs {
		var out [LineSize]byte
		// Truncated single byte cannot be a valid non-raw stream for
		// BDI (unknown id / short), and for bit codecs it must either
		// error or decode without panicking.
		for _, junk := range [][]byte{{0xff}, {0x00}, {0x20, 0x13}} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on corrupt input %x: %v", c.Name(), junk, r)
					}
				}()
				_ = c.Decompress(out[:], junk)
			}()
		}
	}
}

func TestBDICorruptErrors(t *testing.T) {
	var out [LineSize]byte
	if err := (BDI{}).Decompress(out[:], []byte{42, 0, 0}); err == nil {
		t.Error("unknown BDI id did not error")
	}
	if err := (BDI{}).Decompress(out[:], []byte{bdiIDRepeat, 1, 2}); err == nil {
		t.Error("short BDI repeat stream did not error")
	}
	if err := (BDI{}).Decompress(out[:], []byte{2, 0}); err == nil {
		t.Error("short BDI b8d1 stream did not error")
	}
}

func TestCompressPanicsOnBadLength(t *testing.T) {
	for _, c := range allCodecs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short line did not panic", c.Name())
				}
			}()
			var dst [LineSize]byte
			c.Compress(dst[:], make([]byte, 32))
		}()
	}
}

func TestIsZeroLine(t *testing.T) {
	z := make([]byte, LineSize)
	if !IsZeroLine(z) {
		t.Error("zero line not detected")
	}
	// A single set bit in any byte, at any bit position, makes the
	// line non-zero.
	for i := 0; i < LineSize; i++ {
		for _, bit := range []byte{0x01, 0x80} {
			z[i] = bit
			if IsZeroLine(z) {
				t.Errorf("line with byte %d = %#x detected as zero", i, bit)
			}
			z[i] = 0
		}
	}
	// Block lengths that are not a whole number of lines: the set byte
	// may sit in a full line or in the tail.
	for _, n := range []int{0, 1, 7, 63, 65, 130, 1024} {
		b := make([]byte, n)
		if !IsZeroLine(b) {
			t.Errorf("zero block of %d bytes not detected", n)
		}
		if n == 0 {
			continue
		}
		for _, i := range []int{0, n / 2, n - 1} {
			b[i] = 1
			if IsZeroLine(b) {
				t.Errorf("block of %d bytes with byte %d set detected as zero", n, i)
			}
			b[i] = 0
		}
	}
}

func TestRatio(t *testing.T) {
	zero := make([]byte, LineSize)
	seq := lineOfWords(func(i int) uint32 { return uint32(i) })
	r := rng.New(1)
	rand := make([]byte, LineSize)
	for i := range rand {
		rand[i] = byte(r.Uint32())
	}
	lines := [][]byte{zero, seq, rand, zero}
	ratio := Ratio(BPC{}, CompressoBins, lines)
	// zero(0) + seq(8) + rand(64) + zero(0) = 72 bytes for 256.
	want := 256.0 / 72.0
	if ratio < want-0.01 || ratio > want+0.01 {
		t.Errorf("Ratio = %v, want %v", ratio, want)
	}
	if got := Ratio(BPC{}, CompressoBins, nil); got != 1 {
		t.Errorf("Ratio(no lines) = %v, want 1", got)
	}
}

func TestSizeConventionBoundaries(t *testing.T) {
	// No codec may return a size in (0, 64) that is actually a raw copy,
	// and compressed streams must be strictly under 64 bytes.
	r := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		line := make([]byte, LineSize)
		for i := range line {
			line[i] = byte(r.Uint32())
		}
		for _, c := range allCodecs {
			var dst [LineSize]byte
			n := c.Compress(dst[:], line)
			if n > LineSize {
				t.Fatalf("%s returned size %d > 64", c.Name(), n)
			}
		}
	}
}
