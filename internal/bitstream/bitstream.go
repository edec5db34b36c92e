// Package bitstream implements MSB-first bit-granular readers and
// writers over byte slices.
//
// The compression codecs in internal/compress emit variable-width
// symbols (3-bit prefixes, 5-bit run lengths, 33-bit deltas, ...);
// bitstream is the shared substrate that turns those symbols into the
// byte images stored in simulated main memory. Bits are packed MSB
// first within each byte, matching the conventional presentation of
// the FPC and BPC encodings in the literature.
//
// The Writer and Reader below work word-at-a-time: the writer packs
// symbols into a uint64 accumulator and flushes eight bytes at once,
// the reader consumes whole bytes of its input per iteration. The
// original bit-at-a-time implementations are retained in reference.go
// as the executable specification of the format; the differential
// fuzz target FuzzBitstreamEquivalence pins the two bit-for-bit.
package bitstream

import (
	"encoding/binary"
	"fmt"
)

// lowMask returns a mask of the width low-order bits. Valid for
// width in [0, 64] (Go defines shifts >= 64 as producing 0).
func lowMask(width int) uint64 {
	return ^uint64(0) >> uint(64-width)
}

// Writer accumulates bits MSB-first into an internal buffer.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte // fully flushed bytes
	acc  uint64 // pending bits in the low-order nacc bits (zero when nacc is 0)
	nacc int    // pending bit count, always < 64
}

// NewWriter returns a writer with capacity preallocated for n bytes
// (plus flush headroom, so encoding up to n bytes never reallocates).
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n+8)}
}

// WriteBits appends the width low-order bits of v, most significant
// first. Width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstream: invalid width %d", width))
	}
	v &= lowMask(width)
	if total := w.nacc + width; total < 64 {
		w.acc = w.acc<<uint(width) | v
		w.nacc = total
		return
	}
	// The accumulator fills: emit exactly 64 bits (take from v's high
	// end) and keep the remainder. take >= 1 because nacc < 64.
	take := 64 - w.nacc
	full := w.acc<<uint(take) | v>>uint(width-take)
	w.buf = binary.BigEndian.AppendUint64(w.buf, full)
	rem := width - take
	w.acc = v & lowMask(rem)
	w.nacc = rem
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit uint) {
	w.WriteBits(uint64(bit&1), 1)
}

// Bits returns the total number of bits written so far.
func (w *Writer) Bits() int { return len(w.buf)*8 + w.nacc }

// Len returns the number of bytes needed to hold the written bits.
func (w *Writer) Len() int { return (w.Bits() + 7) / 8 }

// Bytes returns the written stream. The final byte is zero-padded in
// its low-order bits. The slice aliases the writer's storage: it is
// invalidated by any further WriteBits call.
func (w *Writer) Bytes() []byte {
	n := w.Len()
	if cap(w.buf) < n {
		nb := make([]byte, len(w.buf), n+8)
		copy(nb, w.buf)
		w.buf = nb
	}
	out := w.buf[:n]
	acc := w.acc << uint(64-w.nacc) // left-align pending bits
	for i := len(w.buf); i < n; i++ {
		out[i] = byte(acc >> 56)
		acc <<= 8
	}
	return out
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset repositions the reader over buf, allowing reuse without
// reallocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// ReadBits consumes width bits and returns them in the low-order bits
// of the result. It returns an error if the stream is exhausted.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitstream: invalid width %d", width)
	}
	if r.pos+width > len(r.buf)*8 {
		return 0, fmt.Errorf("bitstream: read of %d bits at position %d overruns %d-byte buffer", width, r.pos, len(r.buf))
	}
	pos := r.pos
	r.pos += width
	var v uint64
	// Leading partial byte.
	if k := pos & 7; k != 0 {
		b := uint64(r.buf[pos>>3])
		avail := 8 - k
		if width <= avail {
			return (b >> uint(avail-width)) & lowMask(width), nil
		}
		v = b & lowMask(avail)
		width -= avail
		pos += avail
	}
	// Whole bytes, then a trailing partial byte.
	idx := pos >> 3
	for width >= 8 {
		v = v<<8 | uint64(r.buf[idx])
		idx++
		width -= 8
	}
	if width > 0 {
		v = v<<uint(width) | uint64(r.buf[idx])>>uint(8-width)
	}
	return v, nil
}

// ReadBit consumes a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }
