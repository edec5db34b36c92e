package lcp

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/rng"
)

type image struct{ lines map[uint64][]byte }

func newImage() *image { return &image{lines: make(map[uint64][]byte)} }

func (im *image) ReadLine(addr uint64, buf []byte) {
	if l, ok := im.lines[addr]; ok {
		copy(buf, l)
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

func (im *image) set(addr uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	im.lines[addr] = cp
}

func write(c *Controller, im *image, now, addr uint64, data []byte) memctl.Result {
	im.set(addr, data)
	return c.WriteLine(now, addr, data)
}

func testController(mod func(*Config)) (*Controller, *image) {
	im := newImage()
	cfg := DefaultConfig(256, 1<<20)
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg, dram.New(dram.DDR4_2666()), im), im
}

func pageOfLines(r *rng.Rand, k datagen.Kind) [][]byte {
	lines := make([][]byte, metadata.LinesPerPage)
	for i := range lines {
		lines[i] = datagen.Line(r, k)
	}
	return lines
}

func installPage(c *Controller, im *image, page uint64, lines [][]byte) {
	for i, l := range lines {
		im.set(page*metadata.LinesPerPage+uint64(i), l)
	}
	c.InstallPage(page, lines)
}

func TestNames(t *testing.T) {
	c, _ := testController(nil)
	if c.Name() != "lcp" {
		t.Fatalf("Name = %q", c.Name())
	}
	ca, _ := testController(func(cfg *Config) { cfg.Bins = compress.CompressoBins })
	if ca.Name() != "lcp-align" {
		t.Fatalf("align Name = %q", ca.Name())
	}
}

func TestInstallCompressesUniformPage(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(1)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	// Every line fits the 22 B target: 64*22 = 1408 B -> 2 K page.
	if c.CompressedBytes() != 2048 {
		t.Fatalf("CompressedBytes = %d, want 2048", c.CompressedBytes())
	}
}

func TestLCPLosesToLinePackOnMixedPages(t *testing.T) {
	// LCP-packing's weakness (§II-C): pages whose lines compress to
	// *different* sizes. Half 8 B lines + half 64 B lines cost LCP a
	// 64-line target region plus 32 exceptions.
	r := rng.New(2)
	lines := make([][]byte, 64)
	for i := range lines {
		if i%2 == 0 {
			lines[i] = datagen.Line(r, datagen.Seq)
		} else {
			lines[i] = datagen.Line(r, datagen.Random)
		}
	}
	c, im := testController(nil)
	installPage(c, im, 0, lines)
	// LinePack would need 32*8 + 32*64 = 2304 -> 5 chunks (2560 B).
	// LCP at best: target 22 -> 64*22 + 32*64 = 3456 -> 4 KB, or
	// target 0 -> 32*64 = 2048... ChooseTarget finds the best.
	if c.CompressedBytes() < 2048 {
		t.Fatalf("CompressedBytes = %d suspiciously small", c.CompressedBytes())
	}
	t.Logf("lcp mixed page: %d bytes", c.CompressedBytes())
}

func TestZeroPageFlow(t *testing.T) {
	c, im := testController(nil)
	c.ReadLine(0, 0)
	if c.Stats().ZeroLineOps != 1 {
		t.Fatal("first-touch read not metadata-only")
	}
	r := rng.New(3)
	write(c, im, 100, 1, datagen.Line(r, datagen.SmallInt))
	if c.CompressedBytes() == 0 {
		t.Fatal("zero page did not materialize on write")
	}
	before := c.Stats().ZeroLineOps
	c.ReadLine(200, 5) // other line still zero
	if c.Stats().ZeroLineOps != before+1 {
		t.Fatal("zero line not served from metadata")
	}
}

func TestExceptionPath(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(4)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq)) // 2 K page, 640 B slack
	write(c, im, 0, 0, datagen.Line(r, datagen.Random))
	st := c.Stats()
	if st.LineOverflows != 1 || st.IRPlacements != 1 {
		t.Fatalf("stats %+v: want one overflow into the exception region", st)
	}
	// The exception line reads back uncompressed (one access, but via
	// metadata pointer).
	dr := c.Stats().DataReads
	c.ReadLine(1e6, 0)
	if c.Stats().DataReads != dr+1 {
		t.Fatal("exception read wrong access count")
	}
}

func TestPageOverflowIsAFault(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(5)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	now := uint64(0)
	var faultDone uint64
	for l := uint64(0); l < 64; l++ {
		res := write(c, im, now, l, datagen.Line(r, datagen.Random))
		if res.Done > now {
			faultDone = res.Done - now
		}
		now += 1000
	}
	st := c.Stats()
	if st.PageFaults == 0 || st.PageOverflows == 0 {
		t.Fatalf("no page fault: %+v", st)
	}
	if faultDone < c.cfg.PageFaultPenalty {
		t.Fatalf("fault completion %d below penalty %d", faultDone, c.cfg.PageFaultPenalty)
	}
	if st.OverflowAccesses == 0 {
		t.Fatal("fault recorded no copy traffic")
	}
}

func TestSpeculationHidesMetadataLatency(t *testing.T) {
	readLatency := func(spec bool) uint64 {
		c, im := testController(func(cfg *Config) {
			cfg.Speculate = spec
			// Tiny metadata cache: every page's first read misses.
			cfg.MetadataCache = metadata.CacheConfig{SizeBytes: 2 * metadata.EntrySize, Ways: 2}
			cfg.PrefetchBuffer = 0
		})
		r := rng.New(6)
		for p := uint64(0); p < 8; p++ {
			installPage(c, im, p, pageOfLines(r, datagen.SmallInt))
		}
		var total uint64
		now := uint64(0)
		for p := uint64(0); p < 8; p++ {
			res := c.ReadLine(now, p*64+7)
			total += res.Done - now
			now += 100000
		}
		return total
	}
	withSpec := readLatency(true)
	without := readLatency(false)
	if withSpec >= without {
		t.Fatalf("speculation did not reduce read latency: %d vs %d", withSpec, without)
	}
}

func TestSpeculationWastedOnExceptions(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.MetadataCache = metadata.CacheConfig{SizeBytes: 2 * metadata.EntrySize, Ways: 2}
	})
	r := rng.New(7)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	installPage(c, im, 1, pageOfLines(r, datagen.Seq))
	installPage(c, im, 2, pageOfLines(r, datagen.Seq))
	// Make line 0 of page 0 an exception.
	write(c, im, 0, 0, datagen.Line(r, datagen.Random))
	// Evict page 0's metadata.
	c.ReadLine(1000, 1*64+1)
	c.ReadLine(2000, 2*64+1)
	base := c.Stats().SpeculationMiss
	c.ReadLine(3000, 0) // miss + wasted speculation
	if c.Stats().SpeculationMiss != base+1 {
		t.Fatalf("SpeculationMiss = %d, want %d", c.Stats().SpeculationMiss, base+1)
	}
}

func TestAlignVariantSplitsLess(t *testing.T) {
	splits := func(bins compress.Bins) uint64 {
		c, im := testController(func(cfg *Config) { cfg.Bins = bins; cfg.PrefetchBuffer = 0 })
		r := rng.New(8)
		for p := uint64(0); p < 8; p++ {
			installPage(c, im, p, pageOfLines(r, datagen.SmallInt))
		}
		now := uint64(0)
		for p := uint64(0); p < 8; p++ {
			for l := uint64(0); l < 64; l++ {
				c.ReadLine(now, p*64+l)
				now += 100
			}
		}
		return c.Stats().SplitAccesses
	}
	legacy := splits(compress.LegacyBins)
	aligned := splits(compress.CompressoBins)
	if aligned >= legacy {
		t.Fatalf("align variant split %d vs legacy %d", aligned, legacy)
	}
}

func TestNoRepatriationAfterUnderflow(t *testing.T) {
	// LCP never reclaims exception slots: after data becomes
	// compressible again, the footprint stays (what Compresso's
	// repacking fixes, Fig. 7).
	c, im := testController(nil)
	r := rng.New(9)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	write(c, im, 0, 0, datagen.Line(r, datagen.Random))
	grown := c.CompressedBytes()
	write(c, im, 1000, 0, datagen.Line(r, datagen.Seq)) // compressible again
	if c.Stats().LineUnderflows != 1 {
		t.Fatalf("underflow not counted: %+v", c.Stats())
	}
	if c.CompressedBytes() != grown {
		t.Fatal("LCP unexpectedly reclaimed space")
	}
	p := &c.pages[0]
	if len(p.Exc) != 1 {
		t.Fatal("exception list changed")
	}
}

func TestDiscard(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(10)
	installPage(c, im, 0, pageOfLines(r, datagen.SmallInt))
	c.Discard(0)
	if c.CompressedBytes() != 0 || c.InstalledBytes() != 0 {
		t.Fatal("Discard left state")
	}
}

func TestRandomizedConsistency(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(11)
	kinds := []datagen.Kind{datagen.Zero, datagen.Seq, datagen.SmallInt, datagen.Random, datagen.Pointer}
	now := uint64(0)
	for p := uint64(0); p < 24; p++ {
		installPage(c, im, p, pageOfLines(r, kinds[int(p)%len(kinds)]))
	}
	for i := 0; i < 20000; i++ {
		p := uint64(r.Intn(32))
		l := uint64(r.Intn(64))
		if r.Bool(0.35) {
			write(c, im, now, p*64+l, datagen.Line(r, kinds[r.Intn(len(kinds))]))
		} else {
			c.ReadLine(now, p*64+l)
		}
		now += 50
	}
	st := c.Stats()
	if st.DemandAccesses() != 20000 {
		t.Fatalf("demand %d", st.DemandAccesses())
	}
	if c.CompressedBytes() > c.InstalledBytes() {
		t.Fatalf("compressed %d > installed %d", c.CompressedBytes(), c.InstalledBytes())
	}
	for p := uint64(0); p < 32; p++ {
		for l := uint64(0); l < 64; l++ {
			c.ReadLine(now, p*64+l)
			now += 10
		}
	}
}

func TestCompressoVsLCPFootprint(t *testing.T) {
	// Sanity for Fig. 2's headline: on heterogeneous pages, LCP stores
	// more bytes than LinePack-based Compresso would (checked at the
	// page-math level here; the full comparison is experiment fig2).
	r := rng.New(12)
	lines := make([][]byte, 64)
	linePackBytes := 0
	for i := range lines {
		kinds := []datagen.Kind{datagen.Seq, datagen.SmallInt, datagen.Random, datagen.Zero}
		lines[i] = datagen.Line(r, kinds[i%4])
		var buf [64]byte
		n := (compress.BPC{}).Compress(buf[:], lines[i])
		linePackBytes += compress.LegacyBins.Fit(n)
	}
	c, im := testController(nil)
	installPage(c, im, 0, lines)
	lcpBytes := int(c.CompressedBytes())
	if lcpBytes < linePackBytes {
		t.Fatalf("LCP (%d) beat LinePack (%d) on a heterogeneous page", lcpBytes, linePackBytes)
	}
}

// TestWriteLineWarmZeroAllocs pins the demand write path as
// allocation-free once warm: every line of a compressible page is
// written back with its own contents, so each write recompresses to
// the size it already has and takes the same-size path.
func TestWriteLineWarmZeroAllocs(t *testing.T) {
	c, im := testController(nil)
	lines := pageOfLines(rng.New(5), datagen.Seq)
	installPage(c, im, 0, lines)
	var now uint64
	write := func() {
		for i, l := range lines {
			c.WriteLine(now, uint64(i), l)
			now += 200
		}
	}
	write() // warm the metadata cache
	before := c.Stats()
	if allocs := testing.AllocsPerRun(20, write); allocs != 0 {
		t.Fatalf("WriteLine allocated %v times per %d writes, want 0", allocs, metadata.LinesPerPage)
	}
	after := c.Stats()
	if after.LineOverflows != before.LineOverflows || after.LineUnderflows != before.LineUnderflows {
		t.Fatal("a write changed its line's size: the loop no longer stays on the same-size path")
	}
}

// TestReadLineWarmZeroAllocs pins the demand read path as
// allocation-free once warm: reads cycle over the 64 distinct machine
// lines of an incompressible page, so every read misses the 8-entry
// prefetch buffer and pushes into it.
func TestReadLineWarmZeroAllocs(t *testing.T) {
	c, im := testController(nil)
	installPage(c, im, 0, pageOfLines(rng.New(5), datagen.Random))
	var now, line uint64
	read := func() {
		for i := 0; i < metadata.LinesPerPage; i++ {
			c.ReadLine(now, line%metadata.LinesPerPage)
			line++
			now += 200
		}
	}
	read() // warm the metadata cache
	hits := c.Stats().PrefetchHits
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("ReadLine allocated %v times per %d reads, want 0", allocs, metadata.LinesPerPage)
	}
	if c.Stats().PrefetchHits != hits {
		t.Fatal("a read hit the prefetch buffer: the loop no longer pushes on every read")
	}
}
