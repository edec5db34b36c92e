package capacity

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/parallel"
	"compresso/internal/workload"
)

// tracker maintains, incrementally, the storage footprint the image
// would occupy under each storage model. A full compression pass runs
// once at construction — batched page-at-a-time through the image's
// size memo and fanned across a bounded worker pool (byte-identical at
// any jobs; see DESIGN.md §13). Afterwards only stored-to lines are
// recompressed and only dirty pages re-priced — this is what makes the
// profiling stage affordable at full trace length.
type tracker struct {
	img   *workload.Image
	pages int
	codec compress.Codec

	lineRaw []uint8 // raw compressed size per line (0..64)

	bytes  [NSizers][]int32
	totals [NSizers]int64

	// dirty lists the pages stored to since the last refresh, in
	// first-store order; isDirty flags the listed pages.
	dirty   []uint32
	isDirty []bool
}

func newTracker(img *workload.Image, jobs int) *tracker {
	t := &tracker{
		img:     img,
		pages:   img.FootprintPages(),
		codec:   compress.BPC{},
		lineRaw: make([]uint8, img.Lines()),
		isDirty: make([]bool, img.FootprintPages()),
	}
	for s := Sizer(0); s < NSizers; s++ {
		t.bytes[s] = make([]int32, t.pages)
	}
	// Warm the image's per-line size memo in one batched pass, then
	// price pages on the pool: each worker owns a strided page subset,
	// touching disjoint lineRaw/bytes entries (pricing is pure).
	t.img.SizeAll(t.codec, jobs)
	parallel.Strided(jobs, t.pages, func(p int) {
		base := uint64(p) * memctl.LinesPerPage
		for l := uint64(0); l < memctl.LinesPerPage; l++ {
			t.lineRaw[base+l] = t.rawSize(base + l)
		}
		t.priceFresh(uint32(p))
	})
	for s := Sizer(0); s < NSizers; s++ {
		for p := 0; p < t.pages; p++ {
			t.totals[s] += int64(t.bytes[s][p])
		}
	}
	return t
}

// rawSize narrows a line's compressed size to the uint8 the per-line
// table stores. Sizes are <= 64 for every current codec; the guard
// keeps a future codec or granularity change from silently truncating
// (mirrors experiments.lineSize8).
func (t *tracker) rawSize(lineAddr uint64) uint8 {
	n := t.img.SizeLine(t.codec, lineAddr)
	if n < 0 || n > 255 {
		panic(fmt.Sprintf("capacity: compressed size %d for line %#x does not fit uint8", n, lineAddr))
	}
	return uint8(n)
}

// noteStore marks a stored-to line's page dirty. Recompression is
// deferred to refresh: the line prices identically there (only stores
// mutate content), and back-to-back stores to one line collapse into a
// single sizing pass.
func (t *tracker) noteStore(lineAddr uint64) {
	p := uint32(lineAddr / memctl.LinesPerPage)
	if !t.isDirty[p] {
		t.isDirty[p] = true
		t.dirty = append(t.dirty, p)
	}
}

// refresh re-sizes and re-prices dirty pages, applying no-repack
// watermarks. Unmutated lines of a dirty page hit the image's size
// memo, so a page refresh costs one batched scan plus SizeOnly for
// just the stored-to lines. Pages are priced in first-store order
// into a reused list, so a refresh allocates nothing.
func (t *tracker) refresh() {
	for _, p := range t.dirty {
		t.isDirty[p] = false
		base := uint64(p) * memctl.LinesPerPage
		for l := uint64(0); l < memctl.LinesPerPage; l++ {
			t.lineRaw[base+l] = t.rawSize(base + l)
		}
		old := [NSizers]int32{}
		for s := Sizer(0); s < NSizers; s++ {
			old[s] = t.bytes[s][p]
		}
		t.priceDirty(p, old)
		for s := Sizer(0); s < NSizers; s++ {
			t.totals[s] += int64(t.bytes[s][p] - old[s])
		}
	}
	t.dirty = t.dirty[:0]
}

// priceFresh prices page p from scratch (construction).
func (t *tracker) priceFresh(p uint32) {
	raws := t.lineRaw[uint64(p)*memctl.LinesPerPage : uint64(p+1)*memctl.LinesPerPage]
	t.bytes[Uncompressed][p] = memctl.PageSize
	c := LinePackPageBytes(raws, compress.CompressoBins)
	t.bytes[Compresso][p] = c
	t.bytes[CompressoNoRepack][p] = c
	t.bytes[LCP][p] = LCPPageBytes(raws, compress.LegacyBins)
	t.bytes[LCPAlign][p] = LCPPageBytes(raws, compress.CompressoBins)
}

// priceDirty re-prices page p after stores: repacking systems track
// the fresh packing; non-repacking systems only ever grow (§IV-B4,
// Fig. 7 — "a page only grows in size from its allocation").
func (t *tracker) priceDirty(p uint32, old [NSizers]int32) {
	raws := t.lineRaw[uint64(p)*memctl.LinesPerPage : uint64(p+1)*memctl.LinesPerPage]
	c := LinePackPageBytes(raws, compress.CompressoBins)
	t.bytes[Compresso][p] = c
	t.bytes[CompressoNoRepack][p] = maxI32(old[CompressoNoRepack], c)
	t.bytes[LCP][p] = maxI32(old[LCP], LCPPageBytes(raws, compress.LegacyBins))
	t.bytes[LCPAlign][p] = maxI32(old[LCPAlign], LCPPageBytes(raws, compress.CompressoBins))
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func (t *tracker) footprintBytes() int64 {
	return int64(t.pages) * memctl.PageSize
}

func (t *tracker) storageBytes(s Sizer) int64 { return t.totals[s] }

// LinePackPageBytes prices a page (given its lines' raw compressed
// sizes) under LinePack with the given bins: incremental 512 B chunks,
// 8 page sizes, zero pages free. With CompressoBins this is Compresso's
// storage model; the Fig. 2 LinePack bars use it with other bins.
func LinePackPageBytes(raws []uint8, bins compress.Bins) int32 {
	fresh := 0
	for _, r := range raws {
		fresh += bins.Fit(int(r))
	}
	if fresh == 0 {
		return 0
	}
	chunks := (fresh + 511) / 512
	return int32(chunks * 512)
}

// LCPPageBytes prices a page under LCP-packing with the given line
// bins: the shared lcp.ChooseTarget layout, rounded up to the 4 LCP
// page sizes; all-zero pages are free. Unlike the lcp controller's
// allocation (lcp.SizeFor), the price carries no exception reserve
// (DESIGN.md §3.5).
func LCPPageBytes(raws []uint8, bins compress.Bins) int32 {
	_, bytes := lcp.ChooseTarget(bins, raws)
	if bytes == 0 {
		return 0
	}
	for _, size := range []int{512, 1024, 2048, 4096} {
		if bytes <= size {
			return int32(size)
		}
	}
	return memctl.PageSize
}
