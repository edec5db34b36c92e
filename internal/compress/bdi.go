package compress

import (
	"encoding/binary"
	"fmt"
)

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.,
// PACT 2012). A line is represented as one explicit base value plus
// per-element deltas; elements close to zero use the implicit zero base
// ("immediate") instead, selected by a per-element mask bit.
//
// The paper uses BDI as the simpler comparison algorithm in Fig. 2:
// it compresses less than BPC on average but loses almost nothing
// (2.3%) when paired with LCP-packing because its sizes are uniform.
type BDI struct{}

// Name implements Codec.
func (BDI) Name() string { return "bdi" }

// bdiEncoding describes one base-size/delta-size configuration.
type bdiEncoding struct {
	id    byte // header identifier
	base  int  // base element size in bytes (8, 4 or 2)
	delta int  // delta size in bytes (< base)
}

// The canonical six base-delta configurations, ordered by compressed
// size so the first match is the best.
var bdiEncodings = []bdiEncoding{
	{id: 2, base: 8, delta: 1}, // 18 B
	{id: 3, base: 4, delta: 1}, // 23 B
	{id: 4, base: 8, delta: 2}, // 26 B
	{id: 5, base: 4, delta: 2}, // 39 B
	{id: 6, base: 2, delta: 1}, // 39 B
	{id: 7, base: 8, delta: 4}, // 42 B
}

const (
	bdiIDRepeat = 1 // line is one repeated 8-byte value
)

// bdiSize returns the encoded size in bytes for an encoding: header,
// base, one delta per element, and a mask bit per element.
func bdiSize(e bdiEncoding) int {
	n := LineSize / e.base
	return 1 + e.base + n*e.delta + (n+7)/8
}

// Compress implements Codec. BDI writes whole bytes, so it needs no
// bitstream writer.
func (BDI) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	if IsZeroLine(src) {
		return 0
	}
	if n := bdiTryRepeat(dst, src); n > 0 {
		return n
	}
	for _, e := range bdiEncodings {
		if n := bdiTry(dst, src, e); n > 0 {
			return n
		}
	}
	copy(dst[:LineSize], src)
	return LineSize
}

// SizeOnly implements Codec: it runs only the fit checks (the first
// pass of bdiTry) without encoding.
func (BDI) SizeOnly(src []byte) int {
	checkLine(src)
	if IsZeroLine(src) {
		return 0
	}
	if bdiIsRepeat(src) {
		return 9
	}
	for _, e := range bdiEncodings {
		if bdiFits(src, e) {
			return bdiSize(e)
		}
	}
	return LineSize
}

// bdiIsRepeat reports whether the line is one repeated 8-byte value.
func bdiIsRepeat(src []byte) bool {
	first := binary.LittleEndian.Uint64(src)
	for o := 8; o < LineSize; o += 8 {
		if binary.LittleEndian.Uint64(src[o:]) != first {
			return false
		}
	}
	return true
}

func bdiTryRepeat(dst, src []byte) int {
	if !bdiIsRepeat(src) {
		return 0
	}
	first := binary.LittleEndian.Uint64(src)
	dst[0] = bdiIDRepeat
	binary.LittleEndian.PutUint64(dst[1:], first)
	return 9
}

func bdiLoadElem(src []byte, size, i int) uint64 {
	o := i * size
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(src[o:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(src[o:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(src[o:]))
	}
	panic("bdi: bad element size")
}

func bdiStoreElem(dst []byte, size, i int, v uint64) {
	o := i * size
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(dst[o:], v)
	case 4:
		binary.LittleEndian.PutUint32(dst[o:], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(dst[o:], uint16(v))
	default:
		panic("bdi: bad element size")
	}
}

// fitsSigned reports whether v (a two's-complement value of width
// base*8 bits) sign-extends from delta*8 bits.
func fitsSigned(v uint64, base, delta int) bool {
	shift := uint(64 - base*8)
	sv := int64(v<<shift) >> shift // sign-extend base-width value to 64 bits
	limit := int64(1) << uint(delta*8-1)
	return sv >= -limit && sv < limit
}

// bdiMaxElems bounds the element count of any encoding: the smallest
// base size is 2 bytes, so a line holds at most LineSize/2 elements.
// Fixed-size buffers keep bdiTry allocation-free.
const bdiMaxElems = LineSize / 2

// bdiFits reports whether every element of src fits encoding e — the
// first pass of bdiTry without the buffering or encoding.
func bdiFits(src []byte, e bdiEncoding) bool {
	n := LineSize / e.base
	var base uint64
	haveBase := false
	mask := uint64(1)<<uint(e.base*8) - 1
	if e.base == 8 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		v := bdiLoadElem(src, e.base, i)
		if fitsSigned(v, e.base, e.delta) {
			continue
		}
		if !haveBase {
			base = v
			haveBase = true
		}
		if !fitsSigned((v-base)&mask, e.base, e.delta) {
			return false
		}
	}
	return true
}

func bdiTry(dst, src []byte, e bdiEncoding) int {
	n := LineSize / e.base
	var base uint64
	haveBase := false
	// First pass: find the explicit base (first element that does not
	// fit the zero base) and verify every element fits one of the two.
	// Buffering the elements is what makes dst==src aliasing safe: src
	// is fully read before the encode pass writes dst.
	var elems [bdiMaxElems]uint64
	var useZero [bdiMaxElems]bool
	mask := uint64(1)<<uint(e.base*8) - 1
	if e.base == 8 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		v := bdiLoadElem(src, e.base, i)
		elems[i] = v
		if fitsSigned(v, e.base, e.delta) {
			useZero[i] = true
			continue
		}
		if !haveBase {
			base = v
			haveBase = true
		}
		if !fitsSigned((v-base)&mask, e.base, e.delta) {
			return 0
		}
	}
	// Encode: header, base, deltas, mask bits.
	size := bdiSize(e)
	dst[0] = e.id
	switch e.base {
	case 8:
		binary.LittleEndian.PutUint64(dst[1:], base)
	case 4:
		binary.LittleEndian.PutUint32(dst[1:], uint32(base))
	case 2:
		binary.LittleEndian.PutUint16(dst[1:], uint16(base))
	}
	deltaOff := 1 + e.base
	maskOff := deltaOff + n*e.delta
	for i := maskOff; i < size; i++ {
		dst[i] = 0
	}
	wordMask := uint64(1)<<uint(e.base*8) - 1
	if e.base == 8 {
		wordMask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		var d uint64
		if useZero[i] {
			d = elems[i]
		} else {
			d = (elems[i] - base) & wordMask
			dst[maskOff+i/8] |= 1 << uint(i%8)
		}
		// Store only the low delta bytes.
		for b := 0; b < e.delta; b++ {
			dst[deltaOff+i*e.delta+b] = byte(d >> uint(8*b))
		}
	}
	return size
}

// Decompress implements Codec.
func (BDI) Decompress(dst, src []byte) error {
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
	id := src[0]
	if id == bdiIDRepeat {
		if len(src) != 9 {
			return fmt.Errorf("bdi: repeat stream length %d, want 9", len(src))
		}
		v := binary.LittleEndian.Uint64(src[1:])
		for o := 0; o < LineSize; o += 8 {
			binary.LittleEndian.PutUint64(dst[o:], v)
		}
		return nil
	}
	var enc *bdiEncoding
	for i := range bdiEncodings {
		if bdiEncodings[i].id == id {
			enc = &bdiEncodings[i]
			break
		}
	}
	if enc == nil {
		return fmt.Errorf("bdi: unknown encoding id %d", id)
	}
	if len(src) != bdiSize(*enc) {
		return fmt.Errorf("bdi: stream length %d, want %d for encoding %d", len(src), bdiSize(*enc), id)
	}
	n := LineSize / enc.base
	var base uint64
	switch enc.base {
	case 8:
		base = binary.LittleEndian.Uint64(src[1:])
	case 4:
		base = uint64(binary.LittleEndian.Uint32(src[1:]))
	case 2:
		base = uint64(binary.LittleEndian.Uint16(src[1:]))
	}
	deltaOff := 1 + enc.base
	maskOff := deltaOff + n*enc.delta
	wordMask := uint64(1)<<uint(enc.base*8) - 1
	if enc.base == 8 {
		wordMask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		var d uint64
		for b := enc.delta - 1; b >= 0; b-- {
			d = d<<8 | uint64(src[deltaOff+i*enc.delta+b])
		}
		// Sign-extend the delta from delta*8 bits.
		shift := uint(64 - enc.delta*8)
		sd := uint64(int64(d<<shift) >> shift)
		var v uint64
		if src[maskOff+i/8]&(1<<uint(i%8)) != 0 {
			v = (base + sd) & wordMask
		} else {
			v = sd & wordMask
		}
		bdiStoreElem(dst, enc.base, i, v)
	}
	return nil
}
