package lcp

import (
	"slices"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/rng"
)

// sizesOf builds a page's line sizes: fill everywhere, then the
// overrides by line index.
func sizesOf(fill uint8, overrides map[int]uint8) [metadata.LinesPerPage]uint8 {
	var s [metadata.LinesPerPage]uint8
	for i := range s {
		s[i] = fill
	}
	for i, v := range overrides {
		s[i] = v
	}
	return s
}

// lineSizes maps lines 0..n-1 to size.
func lineSizes(n int, size uint8) map[int]uint8 {
	m := make(map[int]uint8, n)
	for i := range n {
		m[i] = size
	}
	return m
}

// lines returns the line indices 0..n-1.
func lines(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// TestPageLayout pins the shared LCP layout rule: the target minimizing
// 64*target + 64 B per exception, ties to the smaller target, zero lines
// never exceptions, exceptions in line order, and the page size the
// layout plus the exception reserve rounds up to.
func TestPageLayout(t *testing.T) {
	cases := []struct {
		name   string
		bins   compress.Bins
		sizes  [metadata.LinesPerPage]uint8
		target int
		exc    []int
		chunks int
	}{
		{
			// 22 lines of 22 B: 64*22 = 1408 B at the 22 B target, and
			// 22 exceptions are 1408 B at the 0 B target. The tie keeps
			// the smaller target.
			name:   "tie keeps smaller target",
			bins:   compress.LegacyBins,
			sizes:  sizesOf(0, lineSizes(22, 22)),
			target: 0,
			exc:    lines(22),
			chunks: 4,
		},
		{
			// One incompressible line among zeros: a 0 B target with a
			// single exception beats every non-zero target.
			name:   "sparse page takes zero target",
			bins:   compress.LegacyBins,
			sizes:  sizesOf(0, map[int]uint8{5: 64}),
			target: 0,
			exc:    []int{5},
			chunks: 1,
		},
		{
			// Zero lines fit every target and are never exceptions.
			name:   "zero lines are not exceptions",
			bins:   compress.CompressoBins,
			sizes:  sizesOf(8, map[int]uint8{0: 0, 7: 0, 63: 0}),
			target: 8,
			chunks: 2,
		},
		{
			name:   "all-zero page",
			bins:   compress.CompressoBins,
			sizes:  sizesOf(0, nil),
			target: 0,
			chunks: 1,
		},
		{
			// An incompressible page ties at 4096 B between the 64 B
			// target and all 64 lines as exceptions; the reserve is
			// capped at the 4 KB page.
			name:   "clamp at 4096",
			bins:   compress.CompressoBins,
			sizes:  sizesOf(memctl.LineBytes, nil),
			target: 0,
			exc:    lines(metadata.LinesPerPage),
			chunks: 8,
		},
		{
			name:   "exceptions in line order",
			bins:   compress.CompressoBins,
			sizes:  sizesOf(8, map[int]uint8{40: 32, 2: 64, 17: 32}),
			target: 8,
			exc:    []int{2, 17, 40},
			chunks: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Page{Sizes: tc.sizes}
			p.Pack(tc.bins)
			if int(p.Target) != tc.target || !slices.Equal(p.exc, tc.exc) {
				t.Fatalf("target %d exceptions %v; want %d and %v", p.Target, p.exc, tc.target, tc.exc)
			}
			target, bytes := ChooseTarget(tc.bins, tc.sizes[:])
			if target != tc.target || bytes != p.Bytes() {
				t.Fatalf("ChooseTarget = %d, %d B; want %d, %d B", target, bytes, tc.target, p.Bytes())
			}
			if got := SizeFor(p.Bytes()); got != tc.chunks {
				t.Fatalf("SizeFor(%d) = %d chunks, want %d", p.Bytes(), got, tc.chunks)
			}
			for slot, line := range p.exc {
				if got := p.Offset(line); got != p.ExcOffset(slot) {
					t.Fatalf("exception line %d at offset %d, want slot %d's %d", line, got, slot, p.ExcOffset(slot))
				}
			}
		})
	}
}

// linearExcSlot is the reference ExcSlot: a scan of the exception list.
func linearExcSlot(p *Page, line int) (int, bool) {
	for i, l := range p.exc {
		if l == line {
			return i, true
		}
	}
	return 0, false
}

// TestExcSlotMatchesLinearScan drives pages through random Pack and
// AddException sequences (duplicates included) and requires ExcSlot's
// bitmap answer to equal the linear scan for every line after every
// step.
func TestExcSlotMatchesLinearScan(t *testing.T) {
	r := rng.New(11)
	binSets := []compress.Bins{compress.LegacyBins, compress.CompressoBins, compress.EightBins}
	for trial := 0; trial < 200; trial++ {
		bins := binSets[trial%len(binSets)]
		var p Page
		p.Chunks = 1 << r.Intn(4)
		for step := 0; step < 40; step++ {
			if r.Intn(4) == 0 {
				for i := range p.Sizes {
					p.Sizes[i] = uint8(bins.SizeOf(r.Intn(bins.Count())))
				}
				p.Pack(bins)
			} else {
				p.AddException(r.Intn(metadata.LinesPerPage))
			}
			for line := 0; line < metadata.LinesPerPage; line++ {
				gotSlot, gotOK := p.ExcSlot(line)
				wantSlot, wantOK := linearExcSlot(&p, line)
				if gotSlot != wantSlot || gotOK != wantOK {
					t.Fatalf("trial %d step %d line %d: ExcSlot = %d, %v; linear scan %d, %v (exceptions %v)",
						trial, step, line, gotSlot, gotOK, wantSlot, wantOK, p.exc)
				}
			}
		}
	}
}

// TestStoreSpan pins the machine lines a span covers: none when empty,
// one per 64-byte line touched, consecutive across chunk boundaries.
func TestStoreSpan(t *testing.T) {
	s := NewStore("test", 4, 64*metadata.ChunkSize, nil)
	var p Page
	s.Place(&p, 2)
	first := s.Line(&p, 0)
	cases := []struct {
		off, size int
		want      []uint64
	}{
		{0, 0, nil},
		{0, 22, []uint64{first}},
		{44, 22, []uint64{first, first + 1}},
		{64, 64, []uint64{first + 1}},
		{metadata.ChunkSize - 8, 16, []uint64{first + 7, first + 8}},
		{0, 1024, []uint64{first, first + 1, first + 2, first + 3, first + 4, first + 5, first + 6, first + 7,
			first + 8, first + 9, first + 10, first + 11, first + 12, first + 13, first + 14, first + 15}},
	}
	for _, tc := range cases {
		got := s.Span(&p, tc.off, tc.size)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("Span(%d, %d) = %v, want %v", tc.off, tc.size, got, tc.want)
		}
		for i, line := range got {
			if off := tc.off - tc.off%memctl.LineBytes + i*memctl.LineBytes; line != s.Line(&p, off) {
				t.Fatalf("Span(%d, %d)[%d] = %d, Line(%d) = %d", tc.off, tc.size, i, line, off, s.Line(&p, off))
			}
		}
	}
}

// TestChooseTargetZeroAllocs pins the shared target choice as
// allocation-free: it runs for every installed or faulting page.
func TestChooseTargetZeroAllocs(t *testing.T) {
	sizes := sizesOf(22, map[int]uint8{1: 64, 2: 0})
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins, compress.EightBins} {
		if allocs := testing.AllocsPerRun(100, func() { ChooseTarget(bins, sizes[:]) }); allocs != 0 {
			t.Fatalf("%v: ChooseTarget allocated %v times per page, want 0", bins, allocs)
		}
	}
}

// TestStoreRelocateAllocatesFirst pins the relocation order both
// controllers rely on for identical buddy bases: the new block is
// allocated while the old one is still held.
func TestStoreRelocateAllocatesFirst(t *testing.T) {
	s := NewStore("test", 4, 64*metadata.ChunkSize, nil)
	var p Page
	s.Place(&p, 1)
	old := p.Base
	s.Relocate(&p, 1)
	if p.Base == old {
		t.Fatalf("relocated into the block it left (base %d)", old)
	}
	if got := s.UsedBytes(); got != metadata.ChunkSize {
		t.Fatalf("UsedBytes = %d after relocation, want one chunk", got)
	}
	if got, want := s.Line(&p, metadata.ChunkSize+memctl.LineBytes), 4+uint64(p.Base+1)*8+1; got != want {
		t.Fatalf("Line = %d, want %d", got, want)
	}
}

// TestStorePressureHook pins the allocation retry: a failed
// allocation asks the pressure hook, and retries while it frees.
func TestStorePressureHook(t *testing.T) {
	var s *Store
	var held []Page
	calls := 0
	s = NewStore("test", 4, 16*metadata.ChunkSize, func(need int) bool {
		calls++
		s.Free(&held[0])
		held = held[1:]
		return true
	})
	for s.FreeMachineChunks() >= 8 {
		held = append(held, Page{})
		s.Place(&held[len(held)-1], 8)
	}
	var p Page
	s.Place(&p, 8)
	if calls != 1 {
		t.Fatalf("pressure hook called %d times, want 1", calls)
	}
}
