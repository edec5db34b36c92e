package compress

import (
	"fmt"

	"compresso/internal/bitstream"
)

// CPack implements C-PACK (Chen et al., IEEE TVLSI 2010), the
// dictionary-based cache compressor the paper's algorithm survey
// (§II-A) lists alongside FPC and BDI. Each 32-bit word is encoded
// against a 16-entry FIFO dictionary built on the fly; full matches,
// partial (3- or 2-byte) matches, zero words and zero-extended bytes
// all compress, everything else escapes to a raw word and enters the
// dictionary.
type CPack struct{}

// Name implements Codec.
func (CPack) Name() string { return "cpack" }

// C-PACK pattern codes (prefix-free):
//
//	00                  zero word
//	01 + idx            full dictionary match
//	10 + 32             raw word (inserted into dictionary)
//	1100 + 8            zero-extended byte (000B)
//	1101 + idx + 8      3-byte dictionary match, low byte raw
//	1110 + 16           zero-extended halfword (00BB)
//	1111 + idx + 16     2-byte dictionary match, low half raw
const cpackDictSize = 16
const cpackIdxBits = 4

type cpackDict struct {
	entries [cpackDictSize]uint32
	n       int // valid entries
	next    int // FIFO insert position
}

func (d *cpackDict) push(w uint32) {
	d.entries[d.next] = w
	d.next = (d.next + 1) % cpackDictSize
	if d.n < cpackDictSize {
		d.n++
	}
}

// match searches for the best dictionary match of w: full (4 bytes),
// high-3-byte, or high-2-byte.
func (d *cpackDict) match(w uint32) (idx int, bytes int) {
	best := 0
	bestIdx := -1
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		switch {
		case e == w:
			return i, 4
		case best < 3 && e>>8 == w>>8:
			best, bestIdx = 3, i
		case best < 2 && e>>16 == w>>16:
			best, bestIdx = 2, i
		}
	}
	return bestIdx, best
}

// Compress implements Codec.
func (CPack) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	w := bitstream.NewWriter(LineSize)
	var dict cpackDict
	for _, v := range words {
		switch {
		case v == 0:
			w.WriteBits(0b00, 2)
			continue
		case v <= 0xff:
			w.WriteBits(0b1100, 4)
			w.WriteBits(uint64(v), 8)
			continue
		case v <= 0xffff:
			w.WriteBits(0b1110, 4)
			w.WriteBits(uint64(v), 16)
			continue
		}
		idx, n := dict.match(v)
		switch n {
		case 4:
			w.WriteBits(0b01, 2)
			w.WriteBits(uint64(idx), cpackIdxBits)
		case 3:
			w.WriteBits(0b1101, 4)
			w.WriteBits(uint64(idx), cpackIdxBits)
			w.WriteBits(uint64(v&0xff), 8)
			dict.push(v)
		case 2:
			w.WriteBits(0b1111, 4)
			w.WriteBits(uint64(idx), cpackIdxBits)
			w.WriteBits(uint64(v&0xffff), 16)
			dict.push(v)
		default:
			w.WriteBits(0b10, 2)
			w.WriteBits(uint64(v), 32)
			dict.push(v)
		}
	}
	if w.Len() >= LineSize {
		copy(dst[:LineSize], src)
		return LineSize
	}
	copy(dst, w.Bytes())
	return w.Len()
}

// SizeOnly implements Codec: the same dictionary walk as Compress —
// pushes included, since they change later match lengths — counting
// code widths instead of emitting them.
func (CPack) SizeOnly(src []byte) int {
	checkLine(src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	var dict cpackDict
	bits := 0
	for _, v := range words {
		switch {
		case v == 0:
			bits += 2
			continue
		case v <= 0xff:
			bits += 4 + 8
			continue
		case v <= 0xffff:
			bits += 4 + 16
			continue
		}
		_, n := dict.match(v)
		switch n {
		case 4:
			bits += 2 + cpackIdxBits
		case 3:
			bits += 4 + cpackIdxBits + 8
			dict.push(v)
		case 2:
			bits += 4 + cpackIdxBits + 16
			dict.push(v)
		default:
			bits += 2 + 32
			dict.push(v)
		}
	}
	if n := (bits + 7) / 8; n < LineSize {
		return n
	}
	return LineSize
}

// Decompress implements Codec.
func (CPack) Decompress(dst, src []byte) error {
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
	var dict cpackDict
	var words [WordsPerLine]uint32
	for i := 0; i < WordsPerLine; i++ {
		b0, err := r.ReadBits(2)
		if err != nil {
			return fmt.Errorf("cpack: truncated prefix at word %d: %w", i, err)
		}
		switch b0 {
		case 0b00:
			words[i] = 0
		case 0b01:
			idx, err := r.ReadBits(cpackIdxBits)
			if err != nil {
				return fmt.Errorf("cpack: truncated index: %w", err)
			}
			if int(idx) >= dict.n {
				return fmt.Errorf("cpack: dictionary index %d beyond %d entries", idx, dict.n)
			}
			words[i] = dict.entries[idx]
		case 0b10:
			v, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("cpack: truncated raw word: %w", err)
			}
			words[i] = uint32(v)
			dict.push(words[i])
		case 0b11:
			sub, err := r.ReadBits(2)
			if err != nil {
				return fmt.Errorf("cpack: truncated subprefix: %w", err)
			}
			switch sub {
			case 0b00: // 1100: zero-extended byte
				v, err := r.ReadBits(8)
				if err != nil {
					return fmt.Errorf("cpack: truncated byte: %w", err)
				}
				words[i] = uint32(v)
			case 0b10: // 1110: zero-extended halfword
				v, err := r.ReadBits(16)
				if err != nil {
					return fmt.Errorf("cpack: truncated halfword: %w", err)
				}
				words[i] = uint32(v)
			case 0b01, 0b11: // 1101 / 1111: partial matches
				idx, err := r.ReadBits(cpackIdxBits)
				if err != nil {
					return fmt.Errorf("cpack: truncated index: %w", err)
				}
				if int(idx) >= dict.n {
					return fmt.Errorf("cpack: dictionary index %d beyond %d entries", idx, dict.n)
				}
				base := dict.entries[idx]
				if sub == 0b01 {
					low, err := r.ReadBits(8)
					if err != nil {
						return fmt.Errorf("cpack: truncated low byte: %w", err)
					}
					words[i] = base&^0xff | uint32(low)
				} else {
					low, err := r.ReadBits(16)
					if err != nil {
						return fmt.Errorf("cpack: truncated low half: %w", err)
					}
					words[i] = base&^0xffff | uint32(low)
				}
				dict.push(words[i])
			}
		}
	}
	storeWords(dst, words)
	return nil
}
