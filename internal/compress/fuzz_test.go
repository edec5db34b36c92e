package compress

import (
	"bytes"
	"testing"
)

// Fuzz targets: decoders must never panic on arbitrary streams, and
// every codec must round-trip arbitrary line contents. Run with
// `go test -fuzz FuzzBPCRoundTrip ./internal/compress` for continuous
// fuzzing; under plain `go test` the seed corpus runs as regression
// tests.

func fuzzSeeds(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03}, 16))
	f.Add([]byte("compresso pragmatic main memory compression fuzzing seed....0123"))
}

func FuzzBPCDecompress(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > LineSize {
			data = data[:LineSize]
		}
		var out [LineSize]byte
		_ = (BPC{}).Decompress(out[:], data) // must not panic
	})
}

func FuzzBDIDecompress(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > LineSize {
			data = data[:LineSize]
		}
		var out [LineSize]byte
		_ = (BDI{}).Decompress(out[:], data)
	})
}

func FuzzFPCDecompress(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > LineSize {
			data = data[:LineSize]
		}
		var out [LineSize]byte
		_ = (FPC{}).Decompress(out[:], data)
	})
}

func FuzzCPackDecompress(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > LineSize {
			data = data[:LineSize]
		}
		var out [LineSize]byte
		_ = (CPack{}).Decompress(out[:], data)
	})
}

func FuzzLZDecompressBlock(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		out := make([]byte, 1024)
		if len(data) > len(out) {
			data = data[:len(out)]
		}
		_ = LZDecompressBlock(out, data)
	})
}

// FuzzBPCRoundTrip is the strongest property: any 64-byte content must
// survive compress -> decompress bit-exactly, for every codec.
func FuzzBPCRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var line [LineSize]byte
		copy(line[:], data)
		for _, c := range []Codec{BPC{}, BPC{DisableBestOf: true}, BDI{}, FPC{}, CPack{}, LZ{}} {
			var comp, out [LineSize]byte
			n := c.Compress(comp[:], line[:])
			if n < 0 || n > LineSize {
				t.Fatalf("%s: size %d", c.Name(), n)
			}
			if err := c.Decompress(out[:], comp[:n]); err != nil {
				t.Fatalf("%s: decompress of own output failed: %v", c.Name(), err)
			}
			if !bytes.Equal(out[:], line[:]) {
				t.Fatalf("%s: round trip mismatch", c.Name())
			}
		}
	})
}

// FuzzCodecSizeOnly pins the Codec contract on arbitrary line
// contents: SizeOnly must equal what Compress, its reference, returns
// for every codec.
func FuzzCodecSizeOnly(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var line [LineSize]byte
		copy(line[:], data)
		for _, c := range []Codec{BPC{}, BPC{DisableBestOf: true}, BDI{}, FPC{}, CPack{}, LZ{}} {
			var comp [LineSize]byte
			n := c.Compress(comp[:], line[:])
			if got := SizeOnly(c, line[:]); got != n {
				t.Fatalf("%s: SizeOnly = %d, Compress = %d", c.Name(), got, n)
			}
		}
	})
}

// FuzzLZSizeBlock extends the size-only pin to the block compressor at
// arbitrary block sizes, where the per-token early exit and offset
// widths differ from the 64 B line case.
func FuzzLZSizeBlock(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		dst := make([]byte, len(data))
		n := LZCompressBlock(dst, data)
		if got := LZSizeBlock(data); got != n {
			t.Fatalf("LZSizeBlock = %d, LZCompressBlock = %d (block %d bytes)", got, n, len(data))
		}
	})
}

func FuzzLZBlockRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		dst := make([]byte, len(data))
		n := LZCompressBlock(dst, data)
		out := make([]byte, len(data))
		if err := LZDecompressBlock(out, dst[:n]); err != nil {
			t.Fatalf("decompress of own output failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("block round trip mismatch")
		}
	})
}
