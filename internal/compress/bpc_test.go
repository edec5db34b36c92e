package compress

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// Scalar reference plane builders: the original one-bit-per-iteration
// scatter loops, retained as the executable specification for both
// transpose networks, the fused kernel's (bpcMatrix.build) and the
// oracle's (bpcTranspose32).

func refTransformedPlanes(words [WordsPerLine]uint32) [33]uint32 {
	const nDeltas = WordsPerLine - 1
	const nPlanes = 33
	var deltas [nDeltas]uint64
	for j := 0; j < nDeltas; j++ {
		d := int64(words[j+1]) - int64(words[j])
		deltas[j] = uint64(d) & (1<<33 - 1)
	}
	var ord [nPlanes]uint32
	for p := 0; p < nPlanes; p++ {
		var v uint32
		for j := 0; j < nDeltas; j++ {
			v |= uint32(deltas[j]>>uint(p)&1) << uint(j)
		}
		ord[nPlanes-1-p] = v
	}
	return ord
}

func refRawPlanes(words [WordsPerLine]uint32) [32]uint32 {
	const nPlanes = 32
	var ord [nPlanes]uint32
	for i := 0; i < nPlanes; i++ {
		p := nPlanes - 1 - i
		var v uint32
		for j := 0; j < WordsPerLine; j++ {
			v |= words[j] >> uint(p) & 1 << uint(j)
		}
		ord[i] = v
	}
	return ord
}

// The pre-fusion size path, kept as the oracle for the fused kernel:
// one 32×32 transpose per variant, then a walk over the plane symbols
// that mirrors encodePlanes, run by run.

// bpcTranspose32 runs the recursive delta-swap bit-matrix transpose
// network (Hacker's Delight §7-3) over the 32 words of a. In
// position terms the result satisfies
//
//	a'[r] bit p == a[31-p] bit (31-r)
//
// so loading source word j into row 31-j makes a'[31-q] exactly bit-
// plane q (plane q bit j = word j bit q).
func bpcTranspose32(a *[32]uint32) {
	m := uint32(0x0000ffff)
	for j := 16; j != 0; {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k+j] >> uint(j))) & m
			a[k] ^= t
			a[k+j] ^= t << uint(j)
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// bpcTransformedPlanes builds the 33 delta bit-planes in encode order
// (MSB plane first) into ord.
func bpcTransformedPlanes(words *[WordsPerLine]uint32, ord *[33]uint32) {
	const nDeltas = WordsPerLine - 1
	const nPlanes = 33
	// Low 32 delta bits via the transpose network; plane 32 (the top
	// delta bit) is gathered scalarly.
	var a [32]uint32
	var top uint32
	for j := 0; j < nDeltas; j++ {
		d := int64(words[j+1]) - int64(words[j])
		u := uint64(d) & (1<<33 - 1)
		a[31-j] = uint32(u)
		top |= uint32(u>>32) << uint(j)
	}
	bpcTranspose32(&a)
	ord[0] = top // plane 32
	for i := 1; i < nPlanes; i++ {
		ord[i] = a[i-1] // a[31-q] is plane q; ord[i] is plane 32-i
	}
}

// bpcRawPlanes builds the 32 bit-planes of the raw words in encode
// order (MSB plane first) into a, which must start zeroed.
func bpcRawPlanes(words *[WordsPerLine]uint32, a *[32]uint32) {
	for j := 0; j < WordsPerLine; j++ {
		a[31-j] = words[j]
	}
	bpcTranspose32(a)
}

// countPlanes returns the bit count encodePlanes would emit for the
// same plane sequence, walking the symbol stream identically.
func countPlanes(planes []uint32, width int, chain bool) int {
	allOnes := uint32(1)<<uint(width) - 1
	prev := uint32(0)
	bits := 0
	for i := 0; i < len(planes); {
		dbp := planes[i]
		dbx := dbp
		if chain {
			dbx = dbp ^ prev
		}
		if dbx == 0 {
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
				bits += 3 + 5
			} else {
				bits += 2
			}
			i += run
			prev = p2
			continue
		}
		switch {
		case dbx == allOnes:
			bits += 5
		case chain && dbp == 0:
			bits += 5
		case isTwoConsecutiveOnes(dbx):
			bits += 5 + bpcPosBits
		case dbx&(dbx-1) == 0:
			bits += 5 + bpcPosBits
		default:
			bits += 1 + width
		}
		prev = dbp
		i++
	}
	return bits
}

// refBPCSize is BPC.SizeOnly on the pre-fusion path. It also reports
// whether the untransformed variant wins.
func refBPCSize(b BPC, src []byte) (n int, raw bool) {
	if IsZeroLine(src) {
		return 0, false
	}
	words := loadWords(src)
	var ordT [33]uint32
	bpcTransformedPlanes(&words, &ordT)
	n = (1 + countBPCBase(words[0]) + countPlanes(ordT[:], WordsPerLine-1, true) + 7) / 8
	if !b.DisableBestOf {
		var ordR [32]uint32
		bpcRawPlanes(&words, &ordR)
		if lenR := (1 + countPlanes(ordR[:], WordsPerLine, false) + 7) / 8; lenR < n {
			n, raw = lenR, true
		}
	}
	if n >= LineSize {
		return LineSize, raw
	}
	return n, raw
}

// checkBPCAgainstRef holds the fused kernel to the pre-fusion path on
// line: SizeOnly must return the oracle's size, and Compress must
// encode the oracle's winning variant (byte-length ties go to the
// transformed one).
func checkBPCAgainstRef(b BPC, line []byte) error {
	want, raw := refBPCSize(b, line)
	if got := b.SizeOnly(line); got != want {
		return fmt.Errorf("%s %x: fused SizeOnly = %d, reference = %d", b.Name(), line, got, want)
	}
	var comp [LineSize]byte
	if n := b.Compress(comp[:], line); n > 0 && n < LineSize && (comp[0]>>7 == bpcVariantRaw) != raw {
		return fmt.Errorf("%s %x: Compress wrote variant bit %d, reference winner raw = %v", b.Name(), line, comp[0]>>7, raw)
	}
	return nil
}

// bpcPlaneCases returns structured and random word patterns for the
// plane builder and size tests.
func bpcPlaneCases() [][WordsPerLine]uint32 {
	cases := [][WordsPerLine]uint32{}

	var zero, ones, seq, alt, down [WordsPerLine]uint32
	for i := range seq {
		seq[i] = uint32(i * 0x01010101)
		ones[i] = ^uint32(0)
		alt[i] = 0xaaaa5555
		down[i] = uint32(1000 - 3*i)
	}
	cases = append(cases, zero, ones, seq, alt, down)

	// Single-bit probes: word j with only bit p set must land in plane
	// p bit j and nowhere else.
	for _, j := range []int{0, 1, 7, 15} {
		for _, p := range []int{0, 1, 16, 31} {
			var w [WordsPerLine]uint32
			w[j] = 1 << uint(p)
			cases = append(cases, w)
		}
	}

	// xorshift noise, full-width and narrowed to small values whose
	// planes are mostly zero.
	x := uint64(12345)
	for n := 0; n < 128; n++ {
		var w [WordsPerLine]uint32
		for i := range w {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			w[i] = uint32(x)
			if n%2 == 1 {
				w[i] >>= uint(x>>59) + 1
			}
		}
		cases = append(cases, w)
	}
	return cases
}

// TestBPCPlaneBuilders differentially tests the fused kernel's dual
// plane builder, and the oracle's per-variant transposes, against the
// scalar references.
func TestBPCPlaneBuilders(t *testing.T) {
	for ci, w := range bpcPlaneCases() {
		wantT, wantR := refTransformedPlanes(w), refRawPlanes(w)
		var m bpcMatrix
		m.build(&w)
		var gotT [33]uint32
		m.transformed(&gotT)
		if gotT != wantT {
			t.Errorf("case %d: dual transformed planes diverge from reference\n got: %x\nwant: %x", ci, gotT, wantT)
		}
		var gotR [32]uint32
		m.raw(&gotR)
		if gotR != wantR {
			t.Errorf("case %d: dual raw planes diverge from reference\n got: %x\nwant: %x", ci, gotR, wantR)
		}
		bpcTransformedPlanes(&w, &gotT)
		if gotT != wantT {
			t.Errorf("case %d: oracle transformed planes diverge from reference\n got: %x\nwant: %x", ci, gotT, wantT)
		}
		gotR = [32]uint32{}
		bpcRawPlanes(&w, &gotR)
		if gotR != wantR {
			t.Errorf("case %d: oracle raw planes diverge from reference\n got: %x\nwant: %x", ci, gotR, wantR)
		}
	}
}

// FuzzBPCSizeEquivalence holds the fused kernel to the pre-fusion
// size path on arbitrary lines, for both best-of settings. The seed
// corpus adds the plane-builder patterns and the codec test lines.
func FuzzBPCSizeEquivalence(f *testing.F) {
	fuzzSeeds(f)
	for _, w := range bpcPlaneCases() {
		line := make([]byte, LineSize)
		storeWords(line, w)
		f.Add(line)
	}
	for _, line := range testLines() {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var line [LineSize]byte
		copy(line[:], data)
		for _, b := range []BPC{{}, {DisableBestOf: true}} {
			if err := checkBPCAgainstRef(b, line[:]); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBPCKnownSizes pins a few absolute sizes so a symbol-cost change
// in the fused kernel or encodePlanes cannot slip through as a matched
// pair of bugs.
func TestBPCKnownSizes(t *testing.T) {
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], uint32(100+i))
	}
	// Base 100 (SE16), all deltas 1: a known highly-compressible line.
	var dst [LineSize]byte
	n := (BPC{}).Compress(dst[:], line)
	if n <= 0 || n >= 16 {
		t.Errorf("sequential line compressed to %d bytes, want small nonzero", n)
	}
	if got := (BPC{}).SizeOnly(line); got != n {
		t.Errorf("SizeOnly = %d, Compress = %d", got, n)
	}
}
