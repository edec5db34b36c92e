package workload

import (
	"fmt"
	"slices"
	"sync/atomic"

	"compresso/internal/compress"
	"compresso/internal/datagen"
	"compresso/internal/memctl"
	"compresso/internal/parallel"
	"compresso/internal/rng"
)

// Image is a benchmark's OSPA memory contents: FootprintPages pages of
// real line values, generated lazily and deterministically from the
// profile's page-kind mix. It implements memctl.LineSource, and the
// trace layer mutates it as the simulated program stores.
type Image struct {
	prof  Profile
	seed  uint64
	mix   datagen.Mix
	noise datagen.Mix
	cdf   [datagen.NKinds]float64
	// scramble is an odd multiplier coprime to the footprint used to
	// spread the stratified kind assignment across page indices (1
	// when no coprime scramble exists).
	scramble uint64

	// flat is the single backing array for every page's bytes
	// (FootprintPages * PageSize), allocated on first touch; gen marks
	// which pages have been generated. One array keeps Line() a plain
	// subslice, makes Clone one memmove, and gives the GC a single
	// pointer-free object to track instead of one per page.
	flat []byte
	gen  []bool
	// pages caches the per-page line-view slices handed out by Page()
	// (nil until requested; the demand path never builds them).
	pages []datagen.Page

	// Per-line compressed-size memo for one codec (bound on first
	// SizeLine/SizeAll call, identified by Codec.Name). -1 marks a line
	// whose size is unknown or stale; stores invalidate via noteStore.
	// While sharedSize is set, lineSize is the process-wide pristine
	// table for this image (sizetable.go): read-only, copied on the
	// first store.
	sizeCodec  string
	lineSize   []int16
	sharedSize bool
	// altSize is altCodec's pristine table, which answers SizeLine under
	// a codec other than the bound one for lines never stored to.
	altCodec string
	altSize  []int16

	// storedBlocks has one bit per 1 KB block (memctl.LZBlockLines
	// lines) of the image's own bytes that a store has reached; nil
	// until the first store. A block whose bit is clear still holds its
	// generated content, which the pristine tables describe.
	storedBlocks []uint64
	// blockSize is the process-wide pristine LZ block-size table for
	// the image's key (nil until first used). blockMemo is the image's
	// own memo of its stored-to blocks' sizes (n+1, 0 = unknown; nil
	// until first used), which every store to a block clears.
	blockSize []atomic.Uint32
	blockMemo []uint32

	// Store-size sharing for recorded-trace replays (TraceLog.Replay):
	// lastStore[line] is 1 + the index of the last recorded store the
	// line received (0 = pristine generated content, covered by the
	// regular memo), and share points at the log owning the shared
	// slots. Nil outside replays.
	share     *TraceLog
	lastStore []int32
}

// NewImage builds the (lazy) image for a profile.
func NewImage(prof Profile, seed uint64) *Image {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	mix := prof.PageMix()
	// Intra-page noise draws from the non-zero part of the mix so
	// zero pages stay truly zero-dominated.
	noise := mix
	noise[datagen.Zero] = 0
	im := &Image{
		prof:     prof,
		seed:     seed,
		mix:      mix,
		noise:    noise,
		scramble: 1,
	}
	norm := mix.Normalized()
	acc := 0.0
	for k := range norm {
		acc += norm[k]
		im.cdf[k] = acc
	}
	// Page kinds are assigned by stratified quota rather than iid
	// sampling: the realized kind fractions then match the calibrated
	// mix to within one page, which keeps high-zero-fraction profiles
	// (Graph500, libquantum) from drifting far off their Fig. 2
	// target. The scramble spreads each kind across the index space.
	if g := gcd(2654435761, uint64(prof.FootprintPages)); g == 1 {
		im.scramble = 2654435761
	}
	return im
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// kindOf returns the stratified page kind for a page index.
func (im *Image) kindOf(page uint64) datagen.Kind {
	n := uint64(im.prof.FootprintPages)
	idx := (page*im.scramble + nameHash(im.prof.Name)%n) % n
	u := (float64(idx) + 0.5) / float64(n)
	for k := range im.cdf {
		if u <= im.cdf[k] {
			return datagen.Kind(k)
		}
	}
	return datagen.NKinds - 1
}

// nameHash is FNV-1a over the benchmark name.
func nameHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// FootprintPages returns the image's page count.
func (im *Image) FootprintPages() int { return im.prof.FootprintPages }

// ensureFlat allocates the flat backing on first touch. Must be called
// (or have happened) before any concurrent page generation.
func (im *Image) ensureFlat() {
	if im.flat == nil {
		im.flat = make([]byte, im.prof.FootprintPages*memctl.PageSize)
		im.gen = make([]bool, im.prof.FootprintPages)
	}
}

// pageBytes returns the page's 4 KB byte range, generating it first if
// needed.
func (im *Image) pageBytes(page uint64) []byte {
	if page >= uint64(im.prof.FootprintPages) {
		panic(fmt.Sprintf("workload: page %d beyond footprint %d", page, im.prof.FootprintPages))
	}
	im.ensureFlat()
	if !im.gen[page] {
		im.generateInto(page)
		im.gen[page] = true
	}
	return im.flat[page*memctl.PageSize : (page+1)*memctl.PageSize]
}

// Page returns (generating if necessary) the page's line values.
// The returned slices are the live image: writes through them are
// visible to subsequent reads (on replay overlays they are read-only
// and rebuilt per call so stored-to lines resolve through the log).
func (im *Image) Page(page uint64) datagen.Page {
	if im.lastStore != nil {
		if page >= uint64(im.prof.FootprintPages) {
			panic(fmt.Sprintf("workload: page %d beyond footprint %d", page, im.prof.FootprintPages))
		}
		p := make(datagen.Page, datagen.LinesPerPage)
		base := page * memctl.LinesPerPage
		for j := range p {
			p[j] = im.Line(base + uint64(j))
		}
		return p
	}
	b := im.pageBytes(page)
	if im.pages == nil {
		im.pages = make([]datagen.Page, im.prof.FootprintPages)
	}
	if p := im.pages[page]; p != nil {
		return p
	}
	p := make(datagen.Page, datagen.LinesPerPage)
	for j := range p {
		p[j] = b[j*compress.LineSize : (j+1)*compress.LineSize : (j+1)*compress.LineSize]
	}
	im.pages[page] = p
	return p
}

// generateInto builds a page's content from scratch into the flat
// backing. Pure in its inputs: depends only on the image's immutable
// parameters and the page number, so concurrent generation of distinct
// pages is race-free and deterministic.
func (im *Image) generateInto(page uint64) {
	// Mix the profile name into the per-page stream so that different
	// benchmarks sharing a numeric seed draw independent page kinds
	// (one shared stream would correlate their sampling error).
	r := rng.New(im.seed ^ (page+1)*0x9e3779b97f4a7c15 ^ nameHash(im.prof.Name))
	kind := im.kindOf(page)
	buf := im.flat[page*memctl.PageSize : (page+1)*memctl.PageSize]
	if kind == datagen.Zero {
		// Zero pages stay all-zero (no noise): freshly allocated memory.
		datagen.GeneratePageInto(r, kind, 0, im.noise, buf)
		return
	}
	datagen.GeneratePageInto(r, kind, 0.1, im.noise, buf)
}

// Materialize generates every not-yet-generated page, fanning page
// generation across a bounded worker pool (jobs<=0 = all cores). Each
// worker owns a strided subset of the page index space, so workers
// write disjoint flat/gen ranges and the result is byte-identical to
// serial generation at any jobs.
func (im *Image) Materialize(jobs int) {
	im.ensureFlat()
	parallel.Strided(jobs, im.prof.FootprintPages, func(p int) {
		if !im.gen[p] {
			im.generateInto(uint64(p))
			im.gen[p] = true
		}
	})
}

// Line returns the live 64-byte value of an OSPA line, implementing
// memctl.LineViewer. On a replay overlay, a stored-to line's value
// lives in the recorded log; callers must treat the returned slice as
// read-only (the trace layer's own store path never runs on overlays).
func (im *Image) Line(lineAddr uint64) []byte {
	if im.lastStore != nil {
		if k := im.lastStore[lineAddr]; k > 0 {
			off := uint64(k-1) * compress.LineSize
			return im.share.data[off : off+compress.LineSize : off+compress.LineSize]
		}
	}
	page := lineAddr / memctl.LinesPerPage
	if im.flat == nil || !im.gen[page] {
		im.pageBytes(page)
	}
	off := lineAddr * compress.LineSize
	return im.flat[off : off+compress.LineSize : off+compress.LineSize]
}

// ReadLine implements memctl.LineSource.
func (im *Image) ReadLine(lineAddr uint64, buf []byte) {
	copy(buf, im.Line(lineAddr))
}

// Lines returns the number of lines in the image.
func (im *Image) Lines() uint64 {
	return uint64(im.prof.FootprintPages) * memctl.LinesPerPage
}

// bindSizeCodec lazily attaches the size memo to a codec. Returns
// false when the memo is already bound to a different codec (callers
// then bypass the memo and size directly). A pristine image binds to
// the shared table for its key (sizetable.go), filling it over jobs
// workers if no image has yet; an image already stored to gets a
// private memo of unknowns.
func (im *Image) bindSizeCodec(codec compress.Codec, jobs int) bool {
	name := codec.Name()
	if im.lineSize != nil {
		return im.sizeCodec == name
	}
	if im.storedBlocks != nil {
		im.sizeCodec, im.lineSize = name, unknownSizes(im.Lines())
		return true
	}
	im.sizeCodec, im.lineSize, im.sharedSize = name, pristineSizes(im, codec, jobs), true
	return true
}

// unknownSizes returns an n-line memo with every entry unknown (-1).
func unknownSizes(n uint64) []int16 {
	sizes := make([]int16, n)
	for i := range sizes {
		sizes[i] = -1
	}
	return sizes
}

// SizeLine returns compress.SizeOnly(codec, line-content), memoized
// per line. The memo binds to the first codec used; any other codec is
// answered from its pristine table while the line was never stored
// to, and from the line's bytes after. Stores through the trace layer
// invalidate the touched line, so the memo always reflects live
// content.
func (im *Image) SizeLine(codec compress.Codec, lineAddr uint64) int {
	if im.lastStore != nil {
		// Replay overlay: the memo is shared read-only with the master
		// image (concurrent replays may be reading it), so nothing is
		// written here. A stored-to line resolves through the log's
		// shared slots; a pristine line's master entry is still valid.
		if im.lastStore[lineAddr] > 0 {
			if n, ok := im.sharedStoreSize(codec, lineAddr); ok {
				return n
			}
			return compress.SizeOnly(codec, im.Line(lineAddr))
		}
		if im.lineSize != nil && im.sizeCodec == codec.Name() {
			if n := im.lineSize[lineAddr]; n >= 0 {
				return int(n)
			}
		}
		return im.unmemoSize(codec, lineAddr)
	}
	if !im.bindSizeCodec(codec, 1) {
		return im.unmemoSize(codec, lineAddr)
	}
	if n := im.lineSize[lineAddr]; n >= 0 {
		return int(n)
	}
	n := compress.SizeOnly(codec, im.Line(lineAddr))
	if n >= 0 && n <= 0x7fff {
		im.lineSize[lineAddr] = int16(n)
	}
	return n
}

// unmemoSize sizes a line the image's own memo does not cover: from
// codec's pristine table while no store has reached the line's bytes,
// else from the bytes.
func (im *Image) unmemoSize(codec compress.Codec, lineAddr uint64) int {
	if !im.blockStored(lineAddr / memctl.LZBlockLines) {
		if sizes := im.altSizes(codec); sizes != nil && sizes[lineAddr] >= 0 {
			return int(sizes[lineAddr])
		}
	}
	return compress.SizeOnly(codec, im.Line(lineAddr))
}

// altSizes returns codec's pristine size table for the image's key,
// binding it as the image's second codec, or nil when the image cannot
// fill it: its own bytes were stored to, and it holds another codec's
// table or none.
func (im *Image) altSizes(codec compress.Codec) []int16 {
	if name := codec.Name(); im.altCodec != name {
		if im.storedBlocks != nil {
			return nil
		}
		im.altCodec, im.altSize = name, pristineSizes(im, codec, 1)
	}
	return im.altSize
}

// blockStored reports whether a store has reached block b of the
// image's own bytes.
func (im *Image) blockStored(b uint64) bool {
	return im.storedBlocks != nil && im.storedBlocks[b/64]&(1<<(b%64)) != 0
}

// SizeLZBlock implements memctl.LZBlockSizer. A block whose bytes are
// still the generated ones is priced once per process, in the pristine
// block table for the image's key (sizetable.go); a block a store has
// reached is priced from its live bytes once per store, in the image's
// own memo.
func (im *Image) SizeLZBlock(firstLine uint64) int {
	b := firstLine / memctl.LZBlockLines
	if !im.blockPristine(b) {
		if im.blockMemo == nil {
			im.blockMemo = make([]uint32, im.Lines()/memctl.LZBlockLines)
		}
		if v := im.blockMemo[b]; v != 0 {
			return int(v - 1)
		}
		n := im.lzSizeBlock(firstLine)
		im.blockMemo[b] = uint32(n) + 1
		return n
	}
	if im.blockSize == nil {
		im.blockSize = pristineBlocks(im)
	}
	if v := im.blockSize[b].Load(); v != 0 {
		return int(v - 1)
	}
	n := im.lzSizeBlock(firstLine)
	im.blockSize[b].Store(uint32(n) + 1)
	return n
}

// blockPristine reports whether block b still holds its generated
// content: no store reached the image's bytes there and, on a replay
// overlay, none of its lines resolves through the log.
func (im *Image) blockPristine(b uint64) bool {
	if im.blockStored(b) {
		return false
	}
	if im.lastStore != nil {
		first := b * memctl.LZBlockLines
		for _, k := range im.lastStore[first : first+memctl.LZBlockLines] {
			if k > 0 {
				return false
			}
		}
	}
	return true
}

// lzSizeBlock is compress.LZSizeBlock over the live content of the
// block starting at firstLine.
func (im *Image) lzSizeBlock(firstLine uint64) int {
	var buf [memctl.LZBlockBytes]byte
	for l := range memctl.LZBlockLines {
		copy(buf[l*compress.LineSize:], im.Line(firstLine+uint64(l)))
	}
	return compress.LZSizeBlock(buf[:])
}

// SizeAll warms the size memo for every line in the image, batched
// page-at-a-time and fanned across a bounded worker pool exactly like
// Materialize. Sizing a page is pure, so the memo contents are
// byte-identical at any jobs.
func (im *Image) SizeAll(codec compress.Codec, jobs int) {
	im.Materialize(jobs)
	if !im.bindSizeCodec(codec, jobs) || im.sharedSize {
		return
	}
	im.sizeInto(codec, im.lineSize, jobs)
}

// sizeInto fills every unknown entry of sizes (a memo of im's lines)
// from im's current bytes, one strided page subset per worker. im must
// be materialized.
func (im *Image) sizeInto(codec compress.Codec, sizes []int16, jobs int) {
	parallel.Strided(jobs, im.prof.FootprintPages, func(p int) {
		base := uint64(p) * memctl.LinesPerPage
		buf := im.flat[uint64(p)*memctl.PageSize : uint64(p+1)*memctl.PageSize]
		for i := 0; i < datagen.LinesPerPage; i++ {
			if sizes[base+uint64(i)] >= 0 {
				continue
			}
			sz := compress.SizeOnly(codec, buf[i*compress.LineSize:(i+1)*compress.LineSize])
			if sz >= 0 && sz <= 0x7fff {
				sizes[base+uint64(i)] = int16(sz)
			}
		}
	})
}

// noteStore marks a mutated line's block stored and invalidates the
// line's size memo. The trace layer calls it on every store. (The trace
// layer's store path never runs on replay overlays — their bytes are
// shared with the master — so this only ever touches an image that
// owns its bytes.) A memo still shared with the pristine table is
// copied first.
func (im *Image) noteStore(lineAddr uint64) {
	if im.storedBlocks == nil {
		blocks := im.Lines() / memctl.LZBlockLines
		im.storedBlocks = make([]uint64, (blocks+63)/64)
	}
	b := lineAddr / memctl.LZBlockLines
	im.storedBlocks[b/64] |= 1 << (b % 64)
	if im.blockMemo != nil {
		im.blockMemo[b] = 0
	}
	if im.lineSize == nil {
		return
	}
	if im.sharedSize {
		im.lineSize, im.sharedSize = slices.Clone(im.lineSize), false
	}
	im.lineSize[lineAddr] = -1
}

// overlay builds a replay view of a fully materialized image: the page
// bytes, gen map and size memo are shared read-only with the receiver
// (SizeLine shadows stored-to lines via lastStore instead of
// invalidating memo entries), and the store overlay and the block memo
// start empty, so creating an overlay allocates only the lastStore
// index. The receiver must not be mutated while overlays exist.
func (im *Image) overlay(lg *TraceLog) *Image {
	cp := *im
	cp.pages = nil // view cache would bypass the store overlay
	cp.blockMemo = nil
	cp.share = lg
	cp.lastStore = make([]int32, im.Lines())
	return &cp
}

// noteSharedStore records which log entry now owns a replayed line's
// content and clears the line's block in the overlay's own block memo.
// The (shared) size memo is left untouched: SizeLine consults
// lastStore before the memo, so the stale entry is shadowed.
func (im *Image) noteSharedStore(lineAddr uint64, store int32) {
	im.lastStore[lineAddr] = store + 1
	if im.blockMemo != nil {
		im.blockMemo[lineAddr/memctl.LZBlockLines] = 0
	}
}

// Clone returns a deep copy of the image: independent page contents
// and an independent (equally warm) size memo. A memo still shared
// with the pristine table stays shared until either copy stores.
// Mutations to either copy never affect the other. Pages not yet
// generated stay lazy in the clone. The flat backing makes this one
// memmove per array rather than per-page work.
func (im *Image) Clone() *Image { return im.CloneInto(nil) }

// CloneInto is Clone into dst's storage: dst (nil for a fresh image; it
// must not be im) is overwritten, and its arrays are reused wherever
// they are large enough, so a caller that needs one throwaway copy
// after another allocates one copy instead of one per image.
func (im *Image) CloneInto(dst *Image) *Image {
	if dst == nil {
		dst = new(Image)
	}
	flat, gen, lineSize, lastStore := dst.flat, dst.gen, dst.lineSize, dst.lastStore
	storedBlocks, blockMemo := dst.storedBlocks, dst.blockMemo
	if dst.sharedSize {
		lineSize = nil // the shared table is never written
	}
	*dst = *im
	dst.pages = nil // view cache points into the source's backing
	dst.flat = copyInto(flat, im.flat)
	dst.gen = copyInto(gen, im.gen)
	if !im.sharedSize {
		dst.lineSize = copyInto(lineSize, im.lineSize)
	}
	dst.lastStore = copyInto(lastStore, im.lastStore)
	dst.storedBlocks = copyInto(storedBlocks, im.storedBlocks)
	dst.blockMemo = copyInto(blockMemo, im.blockMemo)
	return dst
}

// copyInto returns a copy of src, in buf's array when it fits; a nil
// src stays nil.
func copyInto[T any](buf, src []T) []T {
	if src == nil {
		return nil
	}
	return append(buf[:0], src...)
}

// MeasureRatio computes the image's current compression ratio under
// the given codec and bins (the Fig. 2 measurement), optionally
// sampling every strideth page for speed.
func (im *Image) MeasureRatio(codec compress.Codec, bins compress.Bins, stride int) float64 {
	if stride < 1 {
		stride = 1
	}
	total, count := 0, 0
	for p := uint64(0); p < uint64(im.prof.FootprintPages); p += uint64(stride) {
		for _, line := range im.Page(p) {
			total += bins.Fit(compress.SizeOnly(codec, line))
			count++
		}
	}
	if total == 0 {
		return float64(count * compress.LineSize)
	}
	return float64(count*compress.LineSize) / float64(total)
}

// InstallInto installs the whole image into a controller (simulation
// warm start).
func (im *Image) InstallInto(ctl memctl.Controller) {
	im.InstallIntoAt(ctl, 0)
}

// InstallIntoAt installs the whole image into ctl with its pages offset
// by basePage (the multi-core OSPA layout). The lines slice handed to
// InstallPage is a per-call scratch view over the live image; the
// Controller contract forbids retaining it, so no per-page view arrays
// are allocated.
func (im *Image) InstallIntoAt(ctl memctl.Controller, basePage uint64) {
	var scratch [datagen.LinesPerPage][]byte
	for p := uint64(0); p < uint64(im.prof.FootprintPages); p++ {
		if im.lastStore != nil {
			// Replay overlay: resolve each line through the store
			// overlay (a fresh overlay is pristine, but stay correct if
			// installation ever follows stores).
			base := p * memctl.LinesPerPage
			for j := range scratch {
				scratch[j] = im.Line(base + uint64(j))
			}
		} else {
			b := im.pageBytes(p)
			for j := range scratch {
				scratch[j] = b[j*compress.LineSize : (j+1)*compress.LineSize : (j+1)*compress.LineSize]
			}
		}
		ctl.InstallPage(basePage+p, scratch[:])
	}
}
