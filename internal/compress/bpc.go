package compress

import (
	"fmt"
	mathbits "math/bits"

	"compresso/internal/bitstream"
)

// BPC implements Bit-Plane Compression (Kim et al., ISCA 2016) adapted
// from the original 128-byte GPU granularity to 64-byte CPU cache lines
// as described in §II-A of the Compresso paper, including Compresso's
// modification: the line is compressed both with and without the
// Delta-Bitplane-XOR (DBX) transform, in parallel, and the smaller
// encoding wins (the paper reports this saves an average of 13% more
// memory than always applying the transform).
//
// Transformed pipeline for a 64 B line:
//
//	16 x 32-bit words -> base word + 15 deltas (33-bit two's complement)
//	-> 33 bit-planes of 15 bits -> XOR of adjacent planes (DBX)
//	-> per-plane symbol encoding (runs of zero planes, all-ones,
//	   single/double set bits, raw escape).
//
// The untransformed pipeline applies the same symbol encoder directly
// to the 32 bit-planes of the 16 raw words, which wins on data whose
// word-to-word deltas are noisy but whose bit-planes are uniform.
type BPC struct {
	// DisableBestOf forces the DBX transform unconditionally,
	// reproducing baseline BPC for the §II-A ablation.
	DisableBestOf bool
}

// Name implements Codec.
func (b BPC) Name() string {
	if b.DisableBestOf {
		return "bpc-baseline"
	}
	return "bpc"
}

// Variant header values (1 bit).
const (
	bpcVariantTransformed = 0
	bpcVariantRaw         = 1
)

// Base-word selector values (2 bits).
const (
	bpcBaseZero = 0 // base == 0, no payload
	bpcBaseSE4  = 1 // 4-bit sign-extended payload
	bpcBaseSE16 = 2 // 16-bit sign-extended payload
	bpcBaseRaw  = 3 // raw 32-bit payload
)

// Plane-symbol codes. The code set is prefix-free:
// 1, 01, 001, 00000, 00001, 00010, 00011.
// Adapted from Table 2 of the BPC paper with positions shrunk to 4 bits
// for our narrower (15/16-bit) planes.

const bpcPosBits = 4

// Compress implements Codec: the fused kernel prices both best-of
// variants, and only the winner is encoded.
func (b BPC) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	var m bpcMatrix
	m.build(&words)
	n, raw := b.pick(&m, words[0])
	if n >= LineSize {
		copy(dst[:LineSize], src)
		return LineSize
	}
	w := bitstream.NewWriter(LineSize)
	if raw {
		m.encodeRaw(w)
	} else {
		m.encodeTransformed(w, words[0])
	}
	copy(dst, w.Bytes())
	return w.Len()
}

// SizeOnly implements Codec: the fused kernel counts the bits both
// best-of variants would emit without materializing either stream.
// Equality with Compress is pinned by FuzzCodecSizeOnly, and with the
// pre-fusion counting walk by FuzzBPCSizeEquivalence.
func (b BPC) SizeOnly(src []byte) int {
	checkLine(src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	var m bpcMatrix
	m.build(&words)
	n, _ := b.pick(&m, words[0])
	if n >= LineSize {
		return LineSize
	}
	return n
}

// pick prices both variants of the line whose planes m holds and base
// word is base, and returns the winner's length in bytes and whether
// the winner is the untransformed variant. The compare is on byte
// lengths, with ties going to the transformed variant.
func (b BPC) pick(m *bpcMatrix, base uint32) (n int, raw bool) {
	bitsT, bitsR := m.sizes(base)
	n = (bitsT + 7) / 8
	if b.DisableBestOf {
		return n, false
	}
	if nR := (bitsR + 7) / 8; nR < n {
		return nR, true
	}
	return n, false
}

// bpcMatrix holds the bit-planes of both best-of variants in one
// 32×64 bit matrix, already in encode order (MSB plane first). Row i
// holds raw plane 31-i in its low half (bit j = word j bit 31-i) and
// delta plane 31-i in its high half (bit j = bit 31-i of delta j, the
// 33-bit two's complement words[j+1]-words[j]). top is delta plane 32,
// the deltas' sign bits, which the 32-row matrix has no room for.
type bpcMatrix struct {
	rows [32]uint64
	top  uint32
}

// Delta-swap masks for the transpose network, repeated in both
// halves so one pass transposes the raw and the delta matrix at once.
const (
	bpcMask16 = 0x0000ffff_0000ffff
	bpcMask8  = 0x00ff00ff_00ff00ff
	bpcMask4  = 0x0f0f0f0f_0f0f0f0f
	bpcMask2  = 0x33333333_33333333
	bpcMask1  = 0x55555555_55555555
)

// build fills m from the line's words. It runs the recursive
// delta-swap transpose (Hacker's Delight §7-3) on both 32×32 halves
// at once. Source word j (and delta j) is loaded into row 31-j, which
// makes row 31-q of the result bit-plane q. Rows 0-15 start at zero,
// so the first (j=16) stage reduces to splitting each loaded row in
// two. TestBPCPlaneBuilders pins the result against the scalar
// single-bit scatter loops.
func (m *bpcMatrix) build(words *[WordsPerLine]uint32) {
	a := &m.rows
	var top uint32
	for j := 0; j < WordsPerLine; j++ {
		v := uint64(words[j])
		if j < WordsPerLine-1 {
			// The 33-bit delta's sign bit is the subtraction's borrow.
			d, borrow := mathbits.Sub32(words[j+1], words[j], 0)
			v |= uint64(d) << 32
			top |= borrow << uint(j)
		}
		a[15-j] = v >> 16 & bpcMask16
		a[31-j] = v & bpcMask16
	}
	m.top = top
	bpcSwapStages(a)
}

// bpcSwap exchanges the bits selected by mask between rows k and k+j.
func bpcSwap(a *[32]uint64, k, j int, mask uint64) {
	t := (a[k] ^ a[k+j]>>uint(j)) & mask
	a[k] ^= t
	a[k+j] ^= t << uint(j)
}

// bpcTranspose runs the whole delta-swap network on a. It is an
// involution on each 32×32 half: a'[r] bit p == a[31-p] bit (31-r).
func bpcTranspose(a *[32]uint64) {
	for k := 0; k < 16; k++ {
		bpcSwap(a, k, 16, bpcMask16)
	}
	bpcSwapStages(a)
}

// bpcSwapStages runs the j=8, 4, 2, 1 stages of the transpose network.
// Each stage's loop bound and row offsets are constants, so the
// compiler proves every row index in range and drops the bounds
// checks.
func bpcSwapStages(a *[32]uint64) {
	for k := 0; k < 8; k++ {
		bpcSwap(a, k, 8, bpcMask8)
		bpcSwap(a, k+16, 8, bpcMask8)
	}
	for k := 0; k < 4; k++ {
		bpcSwap(a, k, 4, bpcMask4)
		bpcSwap(a, k+8, 4, bpcMask4)
		bpcSwap(a, k+16, 4, bpcMask4)
		bpcSwap(a, k+24, 4, bpcMask4)
	}
	for k := 0; k < 2; k++ {
		bpcSwap(a, k, 2, bpcMask2)
		bpcSwap(a, k+4, 2, bpcMask2)
		bpcSwap(a, k+8, 2, bpcMask2)
		bpcSwap(a, k+12, 2, bpcMask2)
		bpcSwap(a, k+16, 2, bpcMask2)
		bpcSwap(a, k+20, 2, bpcMask2)
		bpcSwap(a, k+24, 2, bpcMask2)
		bpcSwap(a, k+28, 2, bpcMask2)
	}
	for k := 0; k < 16; k++ {
		bpcSwap(a, 2*k, 1, bpcMask1)
	}
}

// transformed copies the 33 delta planes into ord in encode order.
func (m *bpcMatrix) transformed(ord *[33]uint32) {
	ord[0] = m.top
	for i, row := range &m.rows {
		ord[i+1] = uint32(row >> 32)
	}
}

// raw copies the 32 raw-word planes into ord in encode order.
func (m *bpcMatrix) raw(ord *[32]uint32) {
	for i, row := range &m.rows {
		ord[i] = uint32(row)
	}
}

// Plane widths and all-ones plane values of the two variants: the
// transformed variant's planes hold 15 deltas, the raw variant's 16
// words.
const (
	bpcWidthT   = WordsPerLine - 1
	bpcWidthR   = WordsPerLine
	bpcAllOnesT = 1<<bpcWidthT - 1
	bpcAllOnesR = 1<<bpcWidthR - 1
)

// sizes returns the bit lengths of the transformed and raw encodings
// of the line whose planes m holds and whose base word is base.
//
// Plane symbols are priced without walking runs. A plane whose DBX
// value x (the plane XOR the previous plane for the transformed
// variant, the plane itself for the raw one) is non-zero costs a
// fixed symbol chosen from x alone; a zero-DBX plane sets its
// encode-order bit in a zero mask, and the maximal runs of that mask
// are the encoder's zero-run symbols (bpcRunBits).
func (m *bpcMatrix) sizes(base uint32) (bitsT, bitsR int) {
	prev := m.top
	bitsT = 1 + countBPCBase(base) + bpcSymbolBits(prev, prev, bpcAllOnesT, 1+bpcWidthT)
	bitsR = 1
	var zeroT, zeroR uint64
	if prev == 0 {
		zeroT = 1
	}
	for i, row := range &m.rows {
		r, d := uint32(row), uint32(row>>32)
		x := d ^ prev
		prev = d
		bitsT += bpcSymbolBits(x, d, bpcAllOnesT, 1+bpcWidthT)
		bitsR += bpcSymbolBits(r, r, bpcAllOnesR, 1+bpcWidthR)
		var zt, zr uint64
		if x == 0 {
			zt = 1
		}
		if r == 0 {
			zr = 1
		}
		zeroT |= zt << uint(i+1)
		zeroR |= zr << uint(i)
	}
	return bitsT + bpcRunBits(zeroT), bitsR + bpcRunBits(zeroR)
}

// bpcSymbolBits returns the bits encodePlanes spends on a plane with
// DBX value x and plane value dbp, or 0 when x is zero (zero planes
// are priced by bpcRunBits). For the raw variant dbp == x, so the
// "DBX != 0 but DBP == 0" symbol can never apply. The assignments are
// ordered so that the cheapest applicable symbol wins, exactly as the
// encoder's switch tries them; each is a conditional move, not a
// branch.
func bpcSymbolBits(x, dbp, allOnes uint32, rawBits int) int {
	c := rawBits
	if x&^(3*(x&-x)) == 0 { // one set bit, or two adjacent ones
		c = 5 + bpcPosBits
	}
	if x == allOnes {
		c = 5
	}
	if dbp == 0 {
		c = 5
	}
	if x == 0 {
		c = 0
	}
	return c
}

// bpcRunBits prices the zero-run symbols for the zero-DBX planes
// marked in zero (bit i = plane i in encode order): each maximal run
// costs 8 bits (001 + 5-bit length), or 2 (01) when it is a single
// plane. The encoder caps a run at 33 planes, which never binds since
// no variant has more than 33 planes, so its runs are exactly the
// maximal runs of the mask.
func bpcRunBits(zero uint64) int {
	starts := zero &^ (zero << 1)
	ends := zero &^ (zero >> 1)
	return 8*mathbits.OnesCount64(starts) - 6*mathbits.OnesCount64(starts&ends)
}

func (m *bpcMatrix) encodeTransformed(w *bitstream.Writer, base uint32) {
	w.WriteBits(bpcVariantTransformed, 1)
	encodeBPCBase(w, base)
	var ord [33]uint32
	m.transformed(&ord)
	encodePlanes(w, ord[:], bpcWidthT, true)
}

func (m *bpcMatrix) encodeRaw(w *bitstream.Writer) {
	w.WriteBits(bpcVariantRaw, 1)
	var ord [32]uint32
	m.raw(&ord)
	encodePlanes(w, ord[:], bpcWidthR, false)
}

func encodeBPCBase(w *bitstream.Writer, base uint32) {
	switch {
	case base == 0:
		w.WriteBits(bpcBaseZero, 2)
	case seFits(base, 4):
		w.WriteBits(bpcBaseSE4, 2)
		w.WriteBits(uint64(base&0xf), 4)
	case seFits(base, 16):
		w.WriteBits(bpcBaseSE16, 2)
		w.WriteBits(uint64(base&0xffff), 16)
	default:
		w.WriteBits(bpcBaseRaw, 2)
		w.WriteBits(uint64(base), 32)
	}
}

// countBPCBase returns the bit count encodeBPCBase would emit.
func countBPCBase(base uint32) int {
	switch {
	case base == 0:
		return 2
	case seFits(base, 4):
		return 2 + 4
	case seFits(base, 16):
		return 2 + 16
	default:
		return 2 + 32
	}
}

// encodePlanes writes the symbol stream for planes (already in encode
// order, MSB plane first). width is the number of significant bits per
// plane. When chain is set, the DBX transform is applied: the emitted
// symbol for plane i covers dbx = plane[i] XOR plane[i-1] (plane[-1]
// taken as zero), and the special "DBX!=0 but DBP==0" symbol may fire.
func encodePlanes(w *bitstream.Writer, planes []uint32, width int, chain bool) {
	allOnes := uint32(1)<<uint(width) - 1
	prev := uint32(0)
	for i := 0; i < len(planes); {
		dbp := planes[i]
		dbx := dbp
		if chain {
			dbx = dbp ^ prev
		}
		if dbx == 0 {
			// Count the zero-DBX run.
			run := 1
			p2 := dbp
			for i+run < len(planes) && run < 33 {
				next := planes[i+run]
				ndbx := next
				if chain {
					ndbx = next ^ p2
				}
				if ndbx != 0 {
					break
				}
				p2 = next
				run++
			}
			if run >= 2 {
				w.WriteBits(0b001, 3)
				w.WriteBits(uint64(run-2), 5)
			} else {
				w.WriteBits(0b01, 2)
			}
			i += run
			prev = p2
			continue
		}
		switch {
		case dbx == allOnes:
			w.WriteBits(0b00000, 5)
		case chain && dbp == 0:
			w.WriteBits(0b00001, 5)
		case isTwoConsecutiveOnes(dbx):
			w.WriteBits(0b00010, 5)
			w.WriteBits(uint64(trailingZeros32(dbx)), bpcPosBits)
		case dbx&(dbx-1) == 0:
			w.WriteBits(0b00011, 5)
			w.WriteBits(uint64(trailingZeros32(dbx)), bpcPosBits)
		default:
			w.WriteBits(0b1, 1)
			w.WriteBits(uint64(dbx), width)
		}
		prev = dbp
		i++
	}
}

func isTwoConsecutiveOnes(v uint32) bool {
	t := trailingZeros32(v)
	return v == 3<<uint(t)
}

func trailingZeros32(v uint32) int {
	return mathbits.TrailingZeros32(v)
}

// Decompress implements Codec.
func (b BPC) Decompress(dst, src []byte) error {
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
	var r bitstream.Reader
	r.Reset(src)
	variant, err := r.ReadBits(1)
	if err != nil {
		return fmt.Errorf("bpc: truncated header: %w", err)
	}
	// The planes arrive in encode order, which is the row order of a
	// bpcMatrix; the transpose (an involution) turns rows back into
	// words, with word or delta j in row 31-j.
	var ord [33]uint32
	var a [32]uint64
	var words [WordsPerLine]uint32
	switch variant {
	case bpcVariantTransformed:
		base, err := decodeBPCBase(&r)
		if err != nil {
			return err
		}
		if err := decodePlanes(&r, &ord, 33, bpcWidthT, true); err != nil {
			return err
		}
		// ord[0] is the deltas' sign plane, which the sums below do
		// not need: modulo 2^32 a 33-bit delta adds its low 32 bits.
		for i := range a {
			a[i] = uint64(ord[i+1])
		}
		bpcTranspose(&a)
		words[0] = base
		for j := 0; j < WordsPerLine-1; j++ {
			words[j+1] = words[j] + uint32(a[31-j])
		}
	case bpcVariantRaw:
		if err := decodePlanes(&r, &ord, 32, bpcWidthR, false); err != nil {
			return err
		}
		for i := range a {
			a[i] = uint64(ord[i])
		}
		bpcTranspose(&a)
		for j := range words {
			words[j] = uint32(a[31-j])
		}
	}
	storeWords(dst, words)
	return nil
}

func decodeBPCBase(r *bitstream.Reader) (uint32, error) {
	sel, err := r.ReadBits(2)
	if err != nil {
		return 0, fmt.Errorf("bpc: truncated base selector: %w", err)
	}
	switch sel {
	case bpcBaseZero:
		return 0, nil
	case bpcBaseSE4:
		v, err := r.ReadBits(4)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(int32(v<<28) >> 28), nil
	case bpcBaseSE16:
		v, err := r.ReadBits(16)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(int32(v<<16) >> 16), nil
	default:
		v, err := r.ReadBits(32)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(v), nil
	}
}

// decodePlanes reads count planes of the given width into planes, in
// encode order, undoing the DBX chaining when chain is set.
func decodePlanes(r *bitstream.Reader, planes *[33]uint32, count, width int, chain bool) error {
	prev := uint32(0)
	for n := 0; n < count; {
		// Each symbol stands for run planes of DBX value dbx.
		dbx, run := uint32(0), 1
		b0, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("bpc: truncated plane symbol at %d: %w", n, err)
		}
		if b0 == 1 { // raw plane
			v, err := r.ReadBits(width)
			if err != nil {
				return fmt.Errorf("bpc: truncated raw plane: %w", err)
			}
			dbx = uint32(v)
		} else if dbx, run, err = decodePlaneSymbol(r, prev, width, chain); err != nil {
			return err
		}
		if n+run > count {
			return fmt.Errorf("bpc: zero run of %d overflows %d planes", run, count)
		}
		for end := n + run; n < end; n++ {
			dbp := dbx
			if chain {
				dbp ^= prev
			}
			planes[n] = dbp
			prev = dbp
		}
	}
	return nil
}

// decodePlaneSymbol decodes a plane symbol after its leading 0 bit
// and returns the DBX value it stands for and how many planes it
// covers. prev is the previous plane, which the "DBX != 0 but DBP ==
// 0" symbol reproduces as its DBX.
func decodePlaneSymbol(r *bitstream.Reader, prev uint32, width int, chain bool) (dbx uint32, run int, err error) {
	allOnes := uint32(1)<<uint(width) - 1
	b1, err := r.ReadBit()
	if err != nil {
		return 0, 0, fmt.Errorf("bpc: truncated plane symbol: %w", err)
	}
	if b1 == 1 { // 01: single zero-DBX plane
		return 0, 1, nil
	}
	b2, err := r.ReadBit()
	if err != nil {
		return 0, 0, fmt.Errorf("bpc: truncated plane symbol: %w", err)
	}
	if b2 == 1 { // 001: zero-DBX run
		rl, err := r.ReadBits(5)
		if err != nil {
			return 0, 0, fmt.Errorf("bpc: truncated run length: %w", err)
		}
		return 0, int(rl) + 2, nil
	}
	// 000xx: five-bit symbols.
	rest, err := r.ReadBits(2)
	if err != nil {
		return 0, 0, fmt.Errorf("bpc: truncated plane symbol: %w", err)
	}
	switch rest {
	case 0b00: // all ones
		return allOnes, 1, nil
	case 0b01: // DBX != 0 but DBP == 0
		if !chain {
			return 0, 0, fmt.Errorf("bpc: DBP symbol in unchained stream")
		}
		return prev, 1, nil
	}
	// 0b10, 0b11: two consecutive ones / single one
	pos, err := r.ReadBits(bpcPosBits)
	if err != nil {
		return 0, 0, fmt.Errorf("bpc: truncated position: %w", err)
	}
	v := uint32(1) << uint(pos)
	if rest == 0b10 {
		v |= v << 1
	}
	if v&^allOnes != 0 {
		return 0, 0, fmt.Errorf("bpc: position %d exceeds plane width %d", pos, width)
	}
	return v, 1, nil
}
