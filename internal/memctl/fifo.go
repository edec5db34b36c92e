package memctl

import "slices"

// LineFIFO is a controller's fixed-capacity buffer of recently fetched
// line addresses, oldest first (the free-prefetch and burst buffers).
// Pushing into a full buffer drops the oldest entry. The storage is
// allocated once by NewLineFIFO, so the demand path never allocates; a
// zero-capacity buffer holds nothing.
type LineFIFO struct {
	lines []uint64 // len is the occupancy, cap the capacity
}

// NewLineFIFO returns an empty buffer holding up to capacity lines.
func NewLineFIFO(capacity int) LineFIFO {
	return LineFIFO{lines: make([]uint64, 0, max(capacity, 0))}
}

// Contains reports whether line is buffered.
func (f *LineFIFO) Contains(line uint64) bool { return slices.Contains(f.lines, line) }

// Push appends line, first dropping the oldest entry when the buffer
// is full.
func (f *LineFIFO) Push(line uint64) {
	if cap(f.lines) == 0 {
		return
	}
	if len(f.lines) == cap(f.lines) {
		f.lines = f.lines[:copy(f.lines, f.lines[1:])]
	}
	f.lines = append(f.lines, line)
}

// Remove drops the first occurrence of line, keeping the order of the
// rest.
func (f *LineFIFO) Remove(line uint64) {
	if i := slices.Index(f.lines, line); i >= 0 {
		f.lines = slices.Delete(f.lines, i, i+1)
	}
}
