package dmc

import (
	"encoding/binary"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
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

func write(c *Controller, im *image, now, addr uint64, data []byte) {
	im.set(addr, data)
	c.WriteLine(now, addr, data)
}

func testController(mod func(*Config)) (*Controller, *image) {
	im := newImage()
	cfg := DefaultConfig(256, 1<<20)
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg, dram.New(dram.DDR4_2666()), im), im
}

func pageOf(r *rng.Rand, k datagen.Kind) [][]byte {
	lines := make([][]byte, metadata.LinesPerPage)
	for i := range lines {
		lines[i] = datagen.Line(r, k)
	}
	return lines
}

func install(c *Controller, im *image, page uint64, lines [][]byte) {
	for i, l := range lines {
		im.set(page*metadata.LinesPerPage+uint64(i), l)
	}
	c.InstallPage(page, lines)
}

func TestInstallAndReadHot(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(1)
	install(c, im, 0, pageOf(r, datagen.SmallInt))
	if c.CompressedBytes() == 0 || c.CompressedBytes() > 4096 {
		t.Fatalf("install bytes %d", c.CompressedBytes())
	}
	res := c.ReadLine(0, 3)
	if res.Done == 0 || c.Stats().DataReads != 1 {
		t.Fatalf("hot read: %+v", c.Stats())
	}
}

func TestZeroPageFlow(t *testing.T) {
	c, im := testController(nil)
	c.ReadLine(0, 0)
	if c.Stats().ZeroLineOps != 1 {
		t.Fatal("first touch not metadata-only")
	}
	r := rng.New(2)
	write(c, im, 100, 5, datagen.Line(r, datagen.SmallInt))
	if c.CompressedBytes() == 0 {
		t.Fatal("zero page did not materialize")
	}
}

// deltaLine returns a line of eight 8-byte words one apart: BDI packs it
// as base8-delta1, which LegacyBins rounds to the 22 B bin.
func deltaLine() []byte {
	line := make([]byte, memctl.LineBytes)
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(line[w*8:], 1000+uint64(w))
	}
	return line
}

func TestZeroPageWriteIssuesWholeSlot(t *testing.T) {
	c, im := testController(nil)
	data := deltaLine()
	if got := compress.LegacyBins.Fit(compress.SizeOnly(compress.BDI{}, data)); got != 22 {
		t.Fatalf("line bins to %d B, want 22", got)
	}
	// A zero page materializes with target 22, so line 2's slot is
	// bytes 44..66 of the block: one data write plus one split access.
	write(c, im, 0, 2, data)
	st := c.Stats()
	if st.DataWrites != 1 || st.SplitAccesses != 1 {
		t.Fatalf("DataWrites %d SplitAccesses %d, want 1 and 1", st.DataWrites, st.SplitAccesses)
	}
}

// idleRegionController installs an idle region (pages 0..7) and a hot
// one (16..23) under frequent temperature scans, then reads the hot
// region until the idle one goes cold. It returns the controller and
// the cycle after the reads.
func idleRegionController() (*Controller, uint64) {
	c, im := testController(func(cfg *Config) {
		cfg.ReclassifyEvery = 512
		cfg.HotThreshold = 8
	})
	r := rng.New(3)
	for p := uint64(0); p < 8; p++ {
		install(c, im, p, pageOf(r, datagen.Text))
	}
	for p := uint64(16); p < 24; p++ {
		install(c, im, p, pageOf(r, datagen.Text))
	}
	now := uint64(0)
	for i := 0; i < 4000; i++ {
		c.ReadLine(now, 16*64+uint64(i%512))
		now += 100
	}
	return c, now
}

func TestColdConversionOnIdleRegions(t *testing.T) {
	c, now := idleRegionController()
	if c.mechanismSwitches == 0 {
		t.Fatal("idle region never converted to cold")
	}
	if !c.tiers[0].cold {
		t.Fatal("idle page not cold")
	}
	if c.tiers[16].cold {
		t.Fatal("hot page went cold")
	}
	// Cold reads fetch whole blocks: more accesses per read.
	before := c.Stats()
	c.ReadLine(now, 0)
	after := c.Stats()
	coldAccesses := (after.DataReads - before.DataReads) + (after.SplitAccesses - before.SplitAccesses)
	if coldAccesses < 1 {
		t.Fatalf("cold read accesses %d", coldAccesses)
	}
	t.Logf("cold read cost %d accesses; %d mechanism switches", coldAccesses, c.mechanismSwitches)
}

// TestMechanismSwitchesMetric pins that the mechanism-switch count is
// a backend metric under the controller's label and that the warmup
// boundary's ResetStats clears it with the rest of the accounting.
func TestMechanismSwitchesMetric(t *testing.T) {
	c, _ := idleRegionController()
	switches := func() (uint64, bool) {
		r := obs.NewRegistry()
		c.RegisterMetrics(r)
		n, ok := r.Snapshot().Counters["dmc.mechanism_switches"]
		return n, ok
	}
	if n, ok := switches(); !ok || n == 0 {
		t.Fatalf("dmc.mechanism_switches = %d (registered %v) after the idle region went cold", n, ok)
	}
	c.ResetStats()
	if n, ok := switches(); !ok || n != 0 {
		t.Fatalf("dmc.mechanism_switches = %d (registered %v) after ResetStats, want 0", n, ok)
	}
	if st := c.Stats(); st != (memctl.Stats{}) {
		t.Fatalf("hot-tier stats not zero after ResetStats: %+v", st)
	}
}

func TestColdPagesCompressBetter(t *testing.T) {
	// LZ at 1 KB finds the cross-line redundancy of repeated-pattern
	// data that per-line BDI-LCP cannot: after cooling, the footprint
	// shrinks.
	c, im := testController(func(cfg *Config) {
		cfg.ReclassifyEvery = 256
		cfg.HotThreshold = 1000 // everything cools
	})
	r := rng.New(4)
	for p := uint64(0); p < 8; p++ {
		install(c, im, p, pageOf(r, datagen.Repeated))
	}
	hotBytes := c.CompressedBytes()
	now := uint64(0)
	for i := 0; i < 600; i++ { // trigger rescans
		c.ReadLine(now, uint64(i%(8*64)))
		now += 50
	}
	if c.CompressedBytes() >= hotBytes {
		t.Fatalf("cold conversion did not shrink: %d -> %d", hotBytes, c.CompressedBytes())
	}
}

func TestColdWriteGrowthRewrites(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.ReclassifyEvery = 128
		cfg.HotThreshold = 1 << 60 // force everything cold
	})
	r := rng.New(5)
	install(c, im, 0, pageOf(r, datagen.Text))
	now := uint64(0)
	for i := 0; i < 200; i++ {
		c.ReadLine(now, uint64(i%64))
		now += 50
	}
	if !c.tiers[0].cold {
		t.Skip("page did not cool; threshold assumption broken")
	}
	ovBefore := c.Stats().OverflowAccesses
	write(c, im, now, 3, datagen.Line(r, datagen.Random))
	if c.Stats().OverflowAccesses == ovBefore {
		t.Fatal("cold write recorded no read-modify-write traffic")
	}
}

func TestRandomizedConsistency(t *testing.T) {
	c, im := testController(func(cfg *Config) { cfg.ReclassifyEvery = 1024 })
	r := rng.New(6)
	kinds := []datagen.Kind{datagen.Zero, datagen.Seq, datagen.SmallInt, datagen.Random, datagen.Text}
	for p := uint64(0); p < 24; p++ {
		install(c, im, p, pageOf(r, kinds[int(p)%len(kinds)]))
	}
	now := uint64(0)
	for i := 0; i < 15000; i++ {
		p := uint64(r.Intn(32))
		l := uint64(r.Intn(64))
		if r.Bool(0.3) {
			write(c, im, now, p*64+l, datagen.Line(r, kinds[r.Intn(len(kinds))]))
		} else {
			c.ReadLine(now, p*64+l)
		}
		now += 50
	}
	st := c.Stats()
	if st.DemandAccesses() != 15000 {
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

func TestDiscard(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(7)
	install(c, im, 0, pageOf(r, datagen.SmallInt))
	c.Discard(0)
	if c.CompressedBytes() != 0 || c.InstalledBytes() != 0 {
		t.Fatal("discard left state")
	}
}

func TestResetStats(t *testing.T) {
	c, _ := testController(nil)
	c.ReadLine(0, 0)
	c.ResetStats()
	if c.Stats().DemandAccesses() != 0 {
		t.Fatal("stats survived reset")
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var _ memctl.Controller = (*Controller)(nil)
	c, _ := testController(nil)
	if c.Name() != "dmc" {
		t.Fatalf("name %q", c.Name())
	}
}

// TestHotTierMatchesLCP drives dmc with every page hot and no
// temperature scans, and lcp with dmc's codec, bins and latencies, no
// speculation and no prefetch buffer, through one random sequence of
// installs, reads and writes. Each page takes writes on at most two
// lines, so at most two lines per page enter the exception region and
// no page overflows (where the two differ on purpose: lcp faults, dmc
// rewrites in place). Every result and all traffic must then agree.
func TestHotTierMatchesLCP(t *testing.T) {
	const pages = 48
	dcfg := DefaultConfig(pages, 1<<20)
	dcfg.ReclassifyEvery = 1 << 62
	lcfg := lcp.DefaultConfig(pages, 1<<20)
	lcfg.Codec, lcfg.Bins, lcfg.MetadataCache = dcfg.HotCodec, dcfg.Bins, dcfg.MetadataCache
	lcfg.DecompressLatency, lcfg.MetadataHitLatency = dcfg.DecompressLatency, dcfg.MetadataHitLatency
	lcfg.Speculate, lcfg.PrefetchBuffer = false, 0
	im := newImage()
	dmem, lmem := dram.New(dram.DDR4_2666()), dram.New(dram.DDR4_2666())
	d, l := New(dcfg, dmem, im), lcp.New(lcfg, lmem, im)

	r := rng.New(8)
	kinds := []datagen.Kind{datagen.Zero, datagen.Seq, datagen.SmallInt, datagen.Repeated, datagen.Pointer, datagen.Text}
	// Pages below pages/2 are installed; the rest start as zero pages
	// and materialize on their first non-zero write.
	for p := uint64(0); p < pages/2; p++ {
		lines := pageOf(r, kinds[r.Intn(len(kinds))])
		for i, ln := range lines {
			im.set(p*metadata.LinesPerPage+uint64(i), ln)
		}
		d.InstallPage(p, lines)
		l.InstallPage(p, lines)
	}
	var written [pages][2]uint64
	for p := range written {
		written[p] = [2]uint64{uint64(r.Intn(metadata.LinesPerPage)), uint64(r.Intn(metadata.LinesPerPage))}
	}
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		p := uint64(r.Intn(pages))
		var dr, lr memctl.Result
		if r.Bool(0.4) {
			addr := p*metadata.LinesPerPage + written[p][r.Intn(2)]
			data := datagen.Line(r, kinds[r.Intn(len(kinds))])
			im.set(addr, data)
			dr, lr = d.WriteLine(now, addr, data), l.WriteLine(now, addr, data)
		} else {
			addr := p*metadata.LinesPerPage + uint64(r.Intn(metadata.LinesPerPage))
			dr, lr = d.ReadLine(now, addr), l.ReadLine(now, addr)
		}
		if dr != lr {
			t.Fatalf("access %d: dmc %+v, lcp %+v", i, dr, lr)
		}
		now += 40
	}

	ds, ls := d.Stats(), l.Stats()
	if ds != ls {
		t.Fatalf("stats differ:\n  dmc %+v\n  lcp %+v", ds, ls)
	}
	if dmem.Stats() != lmem.Stats() {
		t.Fatalf("DRAM stats differ:\n  dmc %+v\n  lcp %+v", dmem.Stats(), lmem.Stats())
	}
	if d.CompressedBytes() != l.CompressedBytes() {
		t.Fatalf("compressed bytes: dmc %d, lcp %d", d.CompressedBytes(), l.CompressedBytes())
	}
	// The sequence must reach every hot-page step and no page overflow.
	if ds.PageOverflows != 0 || ds.IRPlacements == 0 || ds.LineUnderflows == 0 ||
		ds.SplitAccesses == 0 || ds.ZeroLineOps == 0 || d.mechanismSwitches != 0 {
		t.Fatalf("sequence coverage: %+v, %d switches", ds, d.mechanismSwitches)
	}
}

// blockSizedImage is the test image pricing its own blocks
// (memctl.LZBlockSizer), counting the prices it serves.
type blockSizedImage struct {
	*image
	priced int
}

func (im *blockSizedImage) SizeLZBlock(firstLine uint64) int {
	im.priced++
	block := make([]byte, memctl.LZBlockBytes)
	for l := 0; l < memctl.LZBlockLines; l++ {
		im.ReadLine(firstLine+uint64(l), block[l*memctl.LineBytes:(l+1)*memctl.LineBytes])
	}
	return compress.LZSizeBlock(block)
}

// TestBlockSizerMatchesBytes: a controller whose source prices cold
// blocks itself behaves exactly like one that reads the lines and sizes
// them, on dmc and on the all-cold mxt configuration.
func TestBlockSizerMatchesBytes(t *testing.T) {
	for _, base := range []func(int, int64) Config{DefaultConfig, MXTConfig} {
		cfg := base(32, 1<<20)
		cfg.ReclassifyEvery, cfg.HotThreshold = 512, max(cfg.HotThreshold, 64)
		plain, sized := newImage(), &blockSizedImage{image: newImage()}
		ctls := []*Controller{
			New(cfg, dram.New(dram.DDR4_2666()), plain),
			New(cfg, dram.New(dram.DDR4_2666()), sized),
		}
		if ctls[0].blocks != nil || ctls[1].blocks == nil {
			t.Fatalf("%s: the block sizer was not picked up from the source alone", cfg.Label)
		}
		kinds := []datagen.Kind{datagen.Zero, datagen.Seq, datagen.SmallInt, datagen.Random, datagen.Text}
		for i, im := range []*image{plain, sized.image} {
			r := rng.New(11)
			for p := uint64(0); p < 32; p++ {
				install(ctls[i], im, p, pageOf(r, kinds[int(p)%len(kinds)]))
			}
			now := uint64(0)
			for op := 0; op < 6000; op++ {
				// Mostly the first two regions, so the rest go cold and
				// take writes as cold pages.
				addr := uint64(r.Intn(16 * 64))
				if r.Bool(0.1) {
					addr = uint64(r.Intn(32 * 64))
				}
				if r.Bool(0.3) {
					write(ctls[i], im, now, addr, datagen.Line(r, kinds[r.Intn(len(kinds))]))
				} else {
					ctls[i].ReadLine(now, addr)
				}
				now += 40
			}
		}
		if sized.priced == 0 {
			t.Fatalf("%s: the controller never asked its source for a block price", cfg.Label)
		}
		if a, b := ctls[0].Stats(), ctls[1].Stats(); a != b {
			t.Fatalf("%s: stats differ:\nbytes %+v\nsizer %+v", cfg.Label, a, b)
		}
		if a, b := ctls[0].CompressedBytes(), ctls[1].CompressedBytes(); a != b {
			t.Fatalf("%s: compressed bytes %d by reading lines, %d through the sizer", cfg.Label, a, b)
		}
	}
}
