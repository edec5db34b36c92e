package bitstream

import (
	"bytes"
	"testing"
	"testing/quick"

	"compresso/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0x1ffffffff, 33) // 33-bit all-ones
	w.WriteBit(1)

	r := NewReader(w.Bytes())
	for _, tc := range []struct {
		width int
		want  uint64
	}{{3, 0b101}, {8, 0xff}, {5, 0}, {33, 0x1ffffffff}, {1, 1}} {
		got, err := r.ReadBits(tc.width)
		if err != nil {
			t.Fatalf("ReadBits(%d): %v", tc.width, err)
		}
		if got != tc.want {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", tc.width, got, tc.want)
		}
	}
}

func TestMSBFirstLayout(t *testing.T) {
	w := &Writer{}
	w.WriteBits(1, 1)    // bit 7 of byte 0
	w.WriteBits(0, 3)    // bits 6..4
	w.WriteBits(0b11, 2) // bits 3..2
	w.WriteBits(0b01, 2) // bits 1..0
	want := []byte{0b1000_1101}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("layout = %08b, want %08b", w.Bytes(), want)
	}
}

func TestLenAndBits(t *testing.T) {
	w := &Writer{}
	if w.Len() != 0 || w.Bits() != 0 {
		t.Fatal("zero writer not empty")
	}
	w.WriteBits(0, 9)
	if w.Bits() != 9 {
		t.Fatalf("Bits = %d, want 9", w.Bits())
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first read failed: %v", err)
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Fatal("overrun read did not error")
	}
}

func TestInvalidWidths(t *testing.T) {
	r := NewReader([]byte{0})
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("ReadBits(65) did not error")
	}
	if _, err := r.ReadBits(-1); err == nil {
		t.Fatal("ReadBits(-1) did not error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(65) did not panic")
		}
	}()
	(&Writer{}).WriteBits(0, 65)
}

func TestZeroWidth(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xff, 0)
	if w.Bits() != 0 {
		t.Fatal("zero-width write advanced the stream")
	}
	r := NewReader(nil)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("zero-width read = %v, %v", v, err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.Remaining() != 24 {
		t.Fatalf("Remaining = %d, want 24", r.Remaining())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 19 {
		t.Fatalf("Remaining = %d, want 19", r.Remaining())
	}
	if r.Pos() != 5 {
		t.Fatalf("Pos = %d, want 5", r.Pos())
	}
}

// TestPropertyRoundTrip writes random symbol sequences and reads them
// back, as a property over widths and values.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		count := int(n%64) + 1
		widths := make([]int, count)
		values := make([]uint64, count)
		w := &Writer{}
		for i := 0; i < count; i++ {
			widths[i] = r.Intn(64) + 1
			values[i] = r.Uint64() & (^uint64(0) >> uint(64-widths[i]))
			w.WriteBits(values[i], widths[i])
		}
		rd := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			got, err := rd.ReadBits(widths[i])
			if err != nil || got != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFinalBytePadding(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b1, 1)
	b := w.Bytes()
	if b[0]&0x7f != 0 {
		t.Fatalf("padding bits not zero: %08b", b[0])
	}
}

func BenchmarkWriter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := NewWriter(64)
		for j := 0; j < 33; j++ {
			w.WriteBits(uint64(j), 15)
		}
	}
}

func BenchmarkReader(b *testing.B) {
	w := NewWriter(64)
	for j := 0; j < 33; j++ {
		w.WriteBits(uint64(j), 15)
	}
	buf := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < 33; j++ {
			if _, err := r.ReadBits(15); err != nil {
				b.Fatal(err)
			}
		}
	}
}
