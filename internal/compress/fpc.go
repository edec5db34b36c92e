package compress

import (
	"fmt"

	"compresso/internal/bitstream"
)

// FPC implements Frequent Pattern Compression (Alameldeen & Wood,
// UW-Madison TR-1500). Each 32-bit word is encoded as a 3-bit prefix
// naming one of seven frequent patterns plus an escape to the raw word;
// runs of zero words share one prefix.
//
// FPC appears in the paper's algorithm survey (§II-A); we include it
// both for completeness of the codec library and as a low-latency point
// in the algorithm-lab example.
type FPC struct{}

// Name implements Codec.
func (FPC) Name() string { return "fpc" }

// FPC prefixes.
const (
	fpcZeroRun      = 0 // payload: 3-bit run length - 1 (runs of 1..8 zero words)
	fpcSE4          = 1 // payload: 4 bits, sign-extended
	fpcSE8          = 2 // payload: 8 bits, sign-extended
	fpcSE16         = 3 // payload: 16 bits, sign-extended
	fpcPadded16     = 4 // payload: upper 16 bits; lower 16 are zero
	fpcHalfSE       = 5 // payload: two bytes, each sign-extending to 16 bits
	fpcRepByte      = 6 // payload: 8 bits repeated in all 4 bytes
	fpcUncompressed = 7 // payload: raw 32 bits
)

func seFits(v uint32, bits int) bool {
	sv := int32(v)
	limit := int32(1) << uint(bits-1)
	return sv >= -limit && sv < limit
}

// Compress implements Codec.
func (FPC) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	w := bitstream.NewWriter(LineSize)
	for i := 0; i < WordsPerLine; {
		v := words[i]
		if v == 0 {
			run := 1
			for i+run < WordsPerLine && words[i+run] == 0 && run < 8 {
				run++
			}
			w.WriteBits(fpcZeroRun, 3)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		switch {
		case seFits(v, 4):
			w.WriteBits(fpcSE4, 3)
			w.WriteBits(uint64(v&0xf), 4)
		case seFits(v, 8):
			w.WriteBits(fpcSE8, 3)
			w.WriteBits(uint64(v&0xff), 8)
		case seFits(v, 16):
			w.WriteBits(fpcSE16, 3)
			w.WriteBits(uint64(v&0xffff), 16)
		case v&0xffff == 0:
			w.WriteBits(fpcPadded16, 3)
			w.WriteBits(uint64(v>>16), 16)
		case halfSE(v):
			w.WriteBits(fpcHalfSE, 3)
			w.WriteBits(uint64(v>>16&0xff), 8)
			w.WriteBits(uint64(v&0xff), 8)
		case repByte(v):
			w.WriteBits(fpcRepByte, 3)
			w.WriteBits(uint64(v&0xff), 8)
		default:
			w.WriteBits(fpcUncompressed, 3)
			w.WriteBits(uint64(v), 32)
		}
		i++
	}
	if w.Len() >= LineSize {
		copy(dst[:LineSize], src)
		return LineSize
	}
	copy(dst, w.Bytes())
	return w.Len()
}

// SizeOnly implements Codec: same word walk as Compress, counting
// prefix+payload widths instead of emitting them.
func (FPC) SizeOnly(src []byte) int {
	checkLine(src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	bits := 0
	for i := 0; i < WordsPerLine; {
		v := words[i]
		if v == 0 {
			run := 1
			for i+run < WordsPerLine && words[i+run] == 0 && run < 8 {
				run++
			}
			bits += 3 + 3
			i += run
			continue
		}
		switch {
		case seFits(v, 4):
			bits += 3 + 4
		case seFits(v, 8):
			bits += 3 + 8
		case seFits(v, 16):
			bits += 3 + 16
		case v&0xffff == 0:
			bits += 3 + 16
		case halfSE(v):
			bits += 3 + 16
		case repByte(v):
			bits += 3 + 8
		default:
			bits += 3 + 32
		}
		i++
	}
	if n := (bits + 7) / 8; n < LineSize {
		return n
	}
	return LineSize
}

// halfSE reports whether both 16-bit halves of v sign-extend from a
// byte.
func halfSE(v uint32) bool {
	lo, hi := v&0xffff, v>>16
	fits := func(h uint32) bool {
		sv := int16(h)
		return sv >= -128 && sv < 128
	}
	return fits(lo) && fits(hi)
}

// repByte reports whether all four bytes of v are equal.
func repByte(v uint32) bool {
	b := v & 0xff
	return v == b|b<<8|b<<16|b<<24
}

// Decompress implements Codec.
func (FPC) Decompress(dst, src []byte) error {
	checkLine(dst)
	switch {
	case len(src) == 0:
		for i := range dst {
			dst[i] = 0
		}
		return nil
	case len(src) == LineSize:
		copy(dst, src)
		return nil
	}
	r := bitstream.NewReader(src)
	var words [WordsPerLine]uint32
	for i := 0; i < WordsPerLine; {
		prefix, err := r.ReadBits(3)
		if err != nil {
			return fmt.Errorf("fpc: truncated prefix at word %d: %w", i, err)
		}
		var payloadBits int
		switch prefix {
		case fpcZeroRun:
			payloadBits = 3
		case fpcSE4:
			payloadBits = 4
		case fpcSE8, fpcRepByte:
			payloadBits = 8
		case fpcSE16, fpcPadded16, fpcHalfSE:
			payloadBits = 16
		case fpcUncompressed:
			payloadBits = 32
		}
		p, err := r.ReadBits(payloadBits)
		if err != nil {
			return fmt.Errorf("fpc: truncated payload at word %d: %w", i, err)
		}
		switch prefix {
		case fpcZeroRun:
			run := int(p) + 1
			if i+run > WordsPerLine {
				return fmt.Errorf("fpc: zero run of %d overflows line at word %d", run, i)
			}
			i += run
			continue
		case fpcSE4:
			words[i] = uint32(int32(p<<28) >> 28)
		case fpcSE8:
			words[i] = uint32(int32(p<<24) >> 24)
		case fpcSE16:
			words[i] = uint32(int32(p<<16) >> 16)
		case fpcPadded16:
			words[i] = uint32(p) << 16
		case fpcHalfSE:
			hi := uint32(int32(p>>8<<24)>>24) & 0xffff
			lo := uint32(int32(p<<24)>>24) & 0xffff
			words[i] = hi<<16 | lo
		case fpcRepByte:
			b := uint32(p)
			words[i] = b | b<<8 | b<<16 | b<<24
		case fpcUncompressed:
			words[i] = uint32(p)
		}
		i++
	}
	storeWords(dst, words)
	return nil
}
