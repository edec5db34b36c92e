package capacity

import (
	"slices"
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// expandingCodec models a future codec or granularity change whose
// compressed size does not fit a byte.
type expandingCodec struct{}

func (expandingCodec) Name() string                 { return "expanding-test" }
func (expandingCodec) Compress(dst, src []byte) int { panic("expandingCodec: not used") }
func (expandingCodec) Decompress(dst, src []byte) error {
	panic("expandingCodec: not used")
}
func (expandingCodec) SizeOnly(src []byte) int { return 300 }

// TestRawSizeRejectsOversizedLine pins the tracker's uint8 narrowing:
// a compressed size that does not fit a byte must panic loudly (like
// experiments.lineSize8), not truncate 300 to 44 and silently price
// every storage model with garbage.
func TestRawSizeRejectsOversizedLine(t *testing.T) {
	prof, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{img: workload.NewImage(prof, 1), codec: expandingCodec{}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("rawSize accepted a 300-byte line size without panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "300") {
			t.Fatalf("rawSize panic %v does not name the offending size", r)
		}
	}()
	tr.rawSize(0)
}

// TestLCPPageBytesClampsAt4096 pins LCPPageBytes' terminal clamp to
// the 4096 B uncompressed page. Every bin set starts at a 0 B target,
// so a 64-line all-exception page prices at exactly 64*64 = 4096 B
// pre-round; a longer vector (128 incompressible lines: 8192 B at every
// target) must clamp down to 4096 rather than invent a page size above
// uncompressed.
func TestLCPPageBytesClampsAt4096(t *testing.T) {
	raws := make([]uint8, memctl.LinesPerPage)
	for i := range raws {
		raws[i] = 255
	}
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
		if got := LCPPageBytes(raws, bins); got != memctl.PageSize {
			t.Fatalf("%v: all-exception page priced at %d, want %d", bins, got, memctl.PageSize)
		}
	}
	long := make([]uint8, 2*memctl.LinesPerPage)
	for i := range long {
		long[i] = compress.LineSize
	}
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
		if got := LCPPageBytes(long, bins); got != memctl.PageSize {
			t.Fatalf("%v: oversize vector priced at %d, want clamp to %d", bins, got, memctl.PageSize)
		}
	}
}

// TestLCPNeverExceedsUncompressed sweeps randomized line-size vectors
// and checks the invariant the capacity report relies on: the LCP and
// LCP-align page prices never exceed the 4096 B uncompressed page, so
// their tracker totals cannot either.
func TestLCPNeverExceedsUncompressed(t *testing.T) {
	r := rng.New(42)
	raws := make([]uint8, memctl.LinesPerPage)
	for trial := 0; trial < 2000; trial++ {
		for i := range raws {
			// Mix in-contract sizes (0..64) with out-of-range bytes so
			// the bound holds even for inputs a future codec might feed.
			if trial%2 == 0 {
				raws[i] = uint8(r.Uint64() % 65)
			} else {
				raws[i] = uint8(r.Uint64())
			}
		}
		for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
			if got := LCPPageBytes(raws, bins); got < 0 || got > memctl.PageSize {
				t.Fatalf("trial %d %v: page priced at %d, outside [0, %d]", trial, bins, got, memctl.PageSize)
			}
		}
	}
}

// FuzzLCPPageBytesBounded fuzzes arbitrary line-size vectors through
// both LCP bin sets: prices must stay within [0, PageSize], and the
// shared layout behind them must place every non-zero line either at
// the target (it fits) or in an exception slot (it does not).
func FuzzLCPPageBytesBounded(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, memctl.LinesPerPage))
	all255 := make([]byte, memctl.LinesPerPage)
	for i := range all255 {
		all255[i] = 255
	}
	f.Add(all255)
	f.Fuzz(func(t *testing.T, data []byte) {
		raws := make([]uint8, memctl.LinesPerPage)
		copy(raws, data)
		for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
			if got := LCPPageBytes(raws, bins); got < 0 || got > memctl.PageSize {
				t.Fatalf("%v: page priced at %d, outside [0, %d]", bins, got, memctl.PageSize)
			}
			var p lcp.Page
			copy(p.Sizes[:], raws)
			p.Pack(bins)
			for line, size := range p.Sizes {
				_, exc := p.ExcSlot(line)
				if size != 0 && (size <= p.Target) == exc {
					t.Fatalf("%v: line %d of %d B against a %d B target: exception=%v",
						bins, line, size, p.Target, exc)
				}
			}
		}
	})
}

// TestLCPPageBytesZeroAllocs pins page pricing as allocation-free: the
// tracker prices every page twice per refresh.
func TestLCPPageBytesZeroAllocs(t *testing.T) {
	raws := make([]uint8, memctl.LinesPerPage)
	for i := range raws {
		raws[i] = uint8(i)
	}
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
		if allocs := testing.AllocsPerRun(100, func() { LCPPageBytes(raws, bins) }); allocs != 0 {
			t.Fatalf("%v: LCPPageBytes allocated %v times per page, want 0", bins, allocs)
		}
	}
}

// sizedSource is a memctl.LineSizer whose every line compresses to n
// bytes.
type sizedSource struct{ n int }

func (s sizedSource) ReadLine(addr uint64, buf []byte)                   { clear(buf) }
func (s sizedSource) SizeLine(codec compress.Codec, lineAddr uint64) int { return s.n }

// TestLCPPriceOmitsExceptionReserve pins the one modelling gap between
// the capacity model and the lcp controller (DESIGN.md §3.5): both lay
// a page out with lcp.ChooseTarget, but the capacity price rounds the
// layout alone up to a page size, while the controller adds the 128 B
// exception reserve first. 64 lines of 8 B on lcp-align bins is a
// 512 B layout: capacity prices it at 512 B, lcp allocates 2 chunks.
func TestLCPPriceOmitsExceptionReserve(t *testing.T) {
	raws := make([]uint8, memctl.LinesPerPage)
	lines := make([][]byte, memctl.LinesPerPage)
	for i := range raws {
		raws[i] = 8
		lines[i] = make([]byte, memctl.LineBytes)
	}
	if got := LCPPageBytes(raws, compress.CompressoBins); got != 512 {
		t.Fatalf("capacity prices the page at %d B, want 512", got)
	}
	c := lcp.New(lcp.AlignConfig(16, 1<<20), dram.New(dram.DDR4_2666()), sizedSource{n: 8})
	c.InstallPage(0, lines)
	if got := c.CompressedBytes(); got != 2*metadata.ChunkSize {
		t.Fatalf("lcp allocates %d B for the page, want 2 chunks (%d B)", got, 2*metadata.ChunkSize)
	}
}

// TestRefreshReusesDirtyList pins stage 1's per-interval bookkeeping:
// refresh walks the stored-to pages in first-store order, clears them
// and allocates nothing, and re-pricing an unchanged page moves no
// total.
func TestRefreshReusesDirtyList(t *testing.T) {
	prof, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(workload.NewImage(workload.Scale(prof, 1<<20), 1), 1)
	totals := tr.totals
	for _, page := range []uint64{3, 1, 3, 0, 1} {
		tr.noteStore(page*memctl.LinesPerPage + 5)
	}
	if want := []uint32{3, 1, 0}; !slices.Equal(tr.dirty, want) {
		t.Fatalf("dirty pages %v, want %v in first-store order", tr.dirty, want)
	}
	tr.refresh()
	if len(tr.dirty) != 0 || slices.Contains(tr.isDirty, true) {
		t.Fatalf("refresh left pages dirty: list %v, flags %v", tr.dirty, tr.isDirty)
	}
	if tr.totals != totals {
		t.Fatalf("re-pricing unchanged pages moved totals %v to %v", totals, tr.totals)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.noteStore(2*memctl.LinesPerPage + 1)
		tr.noteStore(7)
		tr.refresh()
	})
	if allocs != 0 {
		t.Fatalf("an interval's noteStore+refresh allocated %v times, want 0", allocs)
	}
}
