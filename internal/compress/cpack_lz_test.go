package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"compresso/internal/rng"
)

func TestCPackRoundTripPatterns(t *testing.T) {
	r := rng.New(31)
	gens := []func() []byte{
		func() []byte { return lineOfWords(func(i int) uint32 { return 0 }) },
		func() []byte { return lineOfWords(func(i int) uint32 { return uint32(i % 3) }) },
		func() []byte { return lineOfWords(func(i int) uint32 { return 0xdeadbeef }) },
		func() []byte { // partial matches: shared high bytes
			return lineOfWords(func(i int) uint32 { return 0xabcdef00 | uint32(i) })
		},
		func() []byte { // halfword values
			return lineOfWords(func(i int) uint32 { return uint32(r.Intn(1 << 16)) })
		},
		func() []byte { // random
			return lineOfWords(func(i int) uint32 { return r.Uint32() })
		},
	}
	for gi, gen := range gens {
		for trial := 0; trial < 50; trial++ {
			line := gen()
			n := mustRoundTrip(t, CPack{}, line)
			// 1 raw word (34 bits) + 15 full matches (6 bits) = 16 B.
			if gi == 2 && n > 16 {
				t.Errorf("repeated word compressed to %d bytes under cpack", n)
			}
		}
	}
}

func TestCPackDictionaryMatters(t *testing.T) {
	// A line full of one repeated (large) word must compress via full
	// dictionary matches: 1 raw + 15 matches = 34 + 90 bits = 16 B.
	line := lineOfWords(func(i int) uint32 { return 0x12345678 })
	n := SizeOnly(CPack{}, line)
	if n != 16 {
		t.Fatalf("repeated-word line = %d bytes, want 16", n)
	}
	// High-3-byte partial matches.
	line = lineOfWords(func(i int) uint32 { return 0x12345600 | uint32(i)<<1 })
	n = SizeOnly(CPack{}, line)
	// 1 raw (34) + 15 partial (16 each) = 274 bits = 35 B.
	if n > 36 {
		t.Fatalf("partial-match line = %d bytes, want <= 36", n)
	}
}

func TestCPackCorruptStreams(t *testing.T) {
	var out [LineSize]byte
	// A full-match token with an empty dictionary must error.
	if err := (CPack{}).Decompress(out[:], []byte{0b0100_0000, 0}); err == nil {
		t.Fatal("dictionary index into empty dictionary accepted")
	}
	for _, junk := range [][]byte{{0xff}, {0x80, 0x01}, {0x55, 0xaa, 0x11}} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %x: %v", junk, r)
				}
			}()
			_ = (CPack{}).Decompress(out[:], junk)
		}()
	}
}

func TestLZLineRoundTrip(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 300; trial++ {
		line := make([]byte, LineSize)
		switch trial % 4 {
		case 0: // text-like with repeats
			pat := []byte("the quick brown fox ")
			for i := range line {
				line[i] = pat[i%len(pat)]
			}
		case 1:
			for i := range line {
				line[i] = byte(r.Intn(4))
			}
		case 2:
			for i := range line {
				line[i] = byte(r.Uint32())
			}
		case 3:
			binary.LittleEndian.PutUint64(line[8:], r.Uint64())
		}
		mustRoundTrip(t, LZ{}, line)
	}
}

func TestLZBeatsWordCodecsOnText(t *testing.T) {
	// LZ's raison d'etre in the survey: highest compression on
	// byte-structured data like text.
	pat := []byte("compresso compresso pragmatic ")
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = pat[i%len(pat)]
	}
	lz := SizeOnly(LZ{}, line)
	bpc := SizeOnly(BPC{}, line)
	if lz >= bpc {
		t.Fatalf("LZ (%d) not better than BPC (%d) on repetitive text", lz, bpc)
	}
}

func TestLZBlockRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeSel uint8) bool {
		r := rng.New(seed)
		sizes := []int{64, 128, 256, 512, 1024}
		size := sizes[int(sizeSel)%len(sizes)]
		src := make([]byte, size)
		// Mixed compressibility: runs of zeros, repeats, noise.
		i := 0
		for i < size {
			runLen := 1 + r.Intn(40)
			if i+runLen > size {
				runLen = size - i
			}
			switch r.Intn(3) {
			case 0: // zeros
				i += runLen
			case 1: // repeated byte
				b := byte(r.Uint32())
				for k := 0; k < runLen; k++ {
					src[i+k] = b
				}
				i += runLen
			default:
				for k := 0; k < runLen; k++ {
					src[i+k] = byte(r.Uint32())
				}
				i += runLen
			}
		}
		dst := make([]byte, size)
		n := LZCompressBlock(dst, src)
		out := make([]byte, size)
		if err := LZDecompressBlock(out, dst[:n]); err != nil {
			return false
		}
		return bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLZBlockConventions(t *testing.T) {
	zeros := make([]byte, 1024)
	dst := make([]byte, 1024)
	if n := LZCompressBlock(dst, zeros); n != 0 {
		t.Fatalf("zero block = %d bytes", n)
	}
	out := make([]byte, 1024)
	if err := LZDecompressBlock(out, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range out {
		if b != 0 {
			t.Fatal("zero block did not decode to zeros")
		}
	}
	if n := LZCompressBlock(dst, []byte{}); n != 0 {
		t.Fatalf("empty block = %d", n)
	}
}

func TestLZBlockCorrupt(t *testing.T) {
	out := make([]byte, 64)
	cases := [][]byte{
		{0b1000_0000, 0xff, 0xff}, // match before any output
		{0b0101_0101},             // truncated literal
	}
	for _, c := range cases {
		if err := LZDecompressBlock(out, c); err == nil {
			t.Errorf("corrupt stream %x accepted", c)
		}
	}
	if err := LZDecompressBlock(out, make([]byte, 65)); err == nil {
		t.Error("overlong stream accepted")
	}
}

func TestLZCoarseGranularityCompressesBetter(t *testing.T) {
	// The MXT/DMC argument: 1 KB blocks find cross-line redundancy
	// that 64 B lines cannot.
	r := rng.New(35)
	block := make([]byte, 1024)
	// A "record array": same 100-byte structure with small variations.
	rec := make([]byte, 100)
	for i := range rec {
		rec[i] = byte(r.Uint32())
	}
	for i := range block {
		block[i] = rec[i%100]
	}
	dst := make([]byte, 1024)
	coarse := LZCompressBlock(dst, block)
	fine := 0
	for off := 0; off < 1024; off += 64 {
		var buf [64]byte
		fine += (LZ{}).Compress(buf[:], block[off:off+64])
	}
	if coarse >= fine {
		t.Fatalf("1 KB LZ (%d) not better than 16x64 B LZ (%d)", coarse, fine)
	}
}

func TestNewCodecsInRegression(t *testing.T) {
	// Every codec obeys the size conventions on the shared generators.
	r := rng.New(37)
	for trial := 0; trial < 200; trial++ {
		line := lineOfWords(func(i int) uint32 {
			if r.Bool(0.3) {
				return 0
			}
			return r.Uint32() >> uint(r.Intn(24))
		})
		for _, c := range []Codec{CPack{}, LZ{}} {
			mustRoundTrip(t, c, line)
		}
	}
}
