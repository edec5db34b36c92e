package memctl

import (
	"slices"
	"testing"
)

func TestLineFIFOOrder(t *testing.T) {
	f := NewLineFIFO(3)
	for _, l := range []uint64{1, 2, 3, 4} {
		f.Push(l)
	}
	if want := []uint64{2, 3, 4}; !slices.Equal(f.lines, want) {
		t.Fatalf("after 4 pushes into 3: %v, want %v (oldest dropped)", f.lines, want)
	}
	if f.Contains(1) || !f.Contains(2) || !f.Contains(4) {
		t.Fatal("Contains disagrees with the buffered lines")
	}
	f.Remove(3)
	f.Remove(9) // absent: no-op
	if want := []uint64{2, 4}; !slices.Equal(f.lines, want) {
		t.Fatalf("after Remove(3): %v, want %v", f.lines, want)
	}
	f.Push(5)
	f.Push(6)
	if want := []uint64{4, 5, 6}; !slices.Equal(f.lines, want) {
		t.Fatalf("after refilling: %v, want %v", f.lines, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Push(7); f.Remove(7) }); allocs != 0 {
		t.Fatalf("Push/Remove allocated %v times", allocs)
	}
}

func TestLineFIFOZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		f := NewLineFIFO(capacity)
		f.Push(1)
		if f.Contains(1) {
			t.Fatalf("capacity %d buffered a line", capacity)
		}
	}
	var zero LineFIFO
	zero.Push(1)
	if zero.Contains(1) {
		t.Fatal("zero value buffered a line")
	}
}
