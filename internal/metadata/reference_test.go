package metadata

import (
	"bytes"
	"fmt"
	"testing"

	"compresso/internal/bitstream"
	"compresso/internal/rng"
)

// referencePack is Pack written field by field on a bitstream Writer,
// in the entry's documented MSB-first order: the oracle the word-level
// codec is checked against.
func referencePack(e *Entry, dst []byte) {
	if len(dst) < EntrySize {
		panic(fmt.Sprintf("metadata: Pack into %d bytes", len(dst)))
	}
	e.validate()
	w := bitstream.NewWriter(EntrySize)
	packBool := func(b bool) {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	packBool(e.Valid)
	packBool(e.Zero)
	packBool(e.Compressed)
	w.WriteBits(uint64(e.PageSizeCode), 3)
	w.WriteBits(uint64(e.InflatedCount), 6)
	w.WriteBits(uint64(e.FreeSpace), 12)
	w.WriteBits(0, 8) // spare
	for _, m := range e.MPFN {
		w.WriteBits(uint64(m), MPFNBits)
	}
	if w.Len() != HalfEntrySize {
		panic(fmt.Sprintf("metadata: half 1 packed to %d bytes", w.Len()))
	}
	for _, c := range e.LineSizeCode {
		w.WriteBits(uint64(c), 2)
	}
	for _, l := range e.Inflated {
		w.WriteBits(uint64(l), 6)
	}
	w.WriteBits(0, 26) // spare
	if w.Len() != EntrySize {
		panic(fmt.Sprintf("metadata: packed to %d bytes", w.Len()))
	}
	copy(dst[:EntrySize], w.Bytes())
}

// referenceUnpack is Unpack written field by field on a bitstream
// Reader.
func referenceUnpack(src []byte) (Entry, error) {
	var e Entry
	if len(src) < EntrySize {
		return e, fmt.Errorf("metadata: unpack from %d bytes", len(src))
	}
	r := bitstream.NewReader(src[:EntrySize])
	readBits := func(n int) uint64 {
		v, err := r.ReadBits(n)
		if err != nil {
			panic("metadata: unreachable short read") // length checked above
		}
		return v
	}
	e.Valid = readBits(1) == 1
	e.Zero = readBits(1) == 1
	e.Compressed = readBits(1) == 1
	e.PageSizeCode = uint8(readBits(3))
	e.InflatedCount = uint8(readBits(6))
	e.FreeSpace = uint16(readBits(12))
	readBits(8) // spare
	for i := range e.MPFN {
		e.MPFN[i] = uint32(readBits(MPFNBits))
	}
	for i := range e.LineSizeCode {
		e.LineSizeCode[i] = uint8(readBits(2))
	}
	for i := range e.Inflated {
		e.Inflated[i] = uint8(readBits(6))
	}
	if e.InflatedCount > MaxInflated {
		return e, fmt.Errorf("metadata: inflated count %d out of range", e.InflatedCount)
	}
	for i := uint8(0); i < e.InflatedCount; i++ {
		if e.Inflated[i] >= LinesPerPage {
			return e, fmt.Errorf("metadata: inflated pointer %d out of range", e.Inflated[i])
		}
	}
	return e, nil
}

// packed runs pack on e and returns the bytes, or the panic message
// when pack rejects e.
func packed(pack func(*Entry, []byte), e Entry) (out [EntrySize]byte, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	pack(&e, out[:])
	return out, ""
}

// requireCodecMatchesReference decodes data with Unpack and the
// reference, then packs the decoded entry and one whose fields take
// data's bits at full Go width (so most are out of range) with Pack and
// the reference: each pair must agree on the entry or bytes and on the
// error or panic.
func requireCodecMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Unpack(data)
	want, wantErr := referenceUnpack(data)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Unpack(% x) = %+v, %v; reference %+v, %v", data, got, gotErr, want, wantErr)
	}
	wide := want
	wide.PageSizeCode = data[0] >> 4
	wide.InflatedCount = data[1] >> 2
	wide.FreeSpace = uint16(data[2])<<5 | uint16(data[3])
	wide.MPFN[data[4]%MaxChunks] |= uint32(data[5]) << 24
	wide.LineSizeCode[data[6]%LinesPerPage] = data[7] >> 5
	wide.Inflated[data[8]%MaxInflated] = data[9] >> 1
	for _, e := range []Entry{want, wide} {
		gotBytes, gotMsg := packed((*Entry).Pack, e)
		wantBytes, wantMsg := packed(referencePack, e)
		if gotBytes != wantBytes || gotMsg != wantMsg {
			t.Fatalf("Pack(%+v) = % x, panic %q; reference % x, panic %q", e, gotBytes, gotMsg, wantBytes, wantMsg)
		}
	}
}

// TestEntryCodecMatchesReference runs the reference comparison on
// random images and on ones whose spare bits, control word or
// inflation pointers are all ones.
func TestEntryCodecMatchesReference(t *testing.T) {
	r := rng.New(5)
	data := make([]byte, EntrySize)
	for range 2000 {
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		requireCodecMatchesReference(t, data)
		e := sampleEntry(r)
		e.Pack(data)
		requireCodecMatchesReference(t, data)
	}
	requireCodecMatchesReference(t, bytes.Repeat([]byte{0xff}, EntrySize))
	requireCodecMatchesReference(t, make([]byte, EntrySize))
}

// FuzzEntryCodecMatchesReference: on arbitrary 64-byte images,
// accepted or rejected, the word-level codec and the bitstream
// reference agree in both directions.
func FuzzEntryCodecMatchesReference(f *testing.F) {
	f.Add(make([]byte, EntrySize))
	f.Add(bytes.Repeat([]byte{0xff}, EntrySize))
	f.Add(bytes.Repeat([]byte{0x5a, 0x00, 0x81}, 22))
	f.Fuzz(func(t *testing.T, data []byte) {
		padded := make([]byte, EntrySize)
		copy(padded, data)
		requireCodecMatchesReference(t, padded)
	})
}

// TestEntryCodecZeroAllocs pins Pack and Unpack at zero allocations:
// the controller packs an entry on every metadata writeback and unpacks
// one on every miss.
func TestEntryCodecZeroAllocs(t *testing.T) {
	e, buf := benchEntry()
	if n := testing.AllocsPerRun(100, func() { e.Pack(buf[:]) }); n != 0 {
		t.Errorf("Pack: %v allocs per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Unpack(buf[:]) }); n != 0 {
		t.Errorf("Unpack: %v allocs per call", n)
	}
}

// benchEntry is a packed compressed entry with inflated lines.
func benchEntry() (Entry, [EntrySize]byte) {
	e := sampleEntry(rng.New(3))
	e.InflatedCount = 5
	var buf [EntrySize]byte
	e.Pack(buf[:])
	return e, buf
}

// BenchmarkEntryPack times Pack against the bitstream reference.
func BenchmarkEntryPack(b *testing.B) {
	e, _ := benchEntry()
	var dst [EntrySize]byte
	for _, c := range []struct {
		name string
		pack func(*Entry, []byte)
	}{{"words", (*Entry).Pack}, {"reference", referencePack}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				c.pack(&e, dst[:])
			}
		})
	}
}

// BenchmarkEntryUnpack times Unpack against the bitstream reference.
func BenchmarkEntryUnpack(b *testing.B) {
	_, src := benchEntry()
	for _, c := range []struct {
		name   string
		unpack func([]byte) (Entry, error)
	}{{"words", Unpack}, {"reference", referenceUnpack}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := c.unpack(src[:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
