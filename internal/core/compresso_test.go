package core

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/rng"
)

// image is an in-memory OSPA line store implementing memctl.LineSource.
type image struct {
	lines map[uint64][]byte
}

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

// write performs a controller write keeping the image in sync, the way
// the simulator's workload layer does.
func write(c *Controller, im *image, now, lineAddr uint64, data []byte) memctl.Result {
	im.set(lineAddr, data)
	return c.WriteLine(now, lineAddr, data)
}

func testController(mod func(*Config)) (*Controller, *image) {
	im := newImage()
	cfg := DefaultConfig(256, 1<<20) // 256 OSPA pages, 1 MB machine
	if mod != nil {
		mod(&cfg)
	}
	mem := dram.New(dram.DDR4_2666())
	return New(cfg, mem, im), im
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

func TestFirstTouchReadIsZeroPage(t *testing.T) {
	c, _ := testController(nil)
	res := c.ReadLine(0, 5)
	st := c.Stats()
	if st.ZeroLineOps != 1 || st.DataReads != 0 {
		t.Fatalf("stats %+v: first touch should be metadata-only", st)
	}
	if res.Done == 0 {
		t.Fatal("no latency at all")
	}
	if c.InstalledBytes() != memctl.PageSize {
		t.Fatalf("InstalledBytes = %d", c.InstalledBytes())
	}
	if c.CompressedBytes() != 0 {
		t.Fatalf("zero page consumed %d bytes", c.CompressedBytes())
	}
}

func TestZeroPageWriteOfZerosStaysZero(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, 64)
	write(c, im, 0, 0, zero)
	if c.CompressedBytes() != 0 {
		t.Fatal("zero write allocated storage")
	}
	if c.Stats().ZeroLineOps != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestZeroPageTransitionOnNonZeroWrite(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(1)
	data := datagen.Line(r, datagen.SmallInt)
	write(c, im, 0, 3, data)
	if c.CompressedBytes() != 512 {
		t.Fatalf("CompressedBytes = %d, want one chunk", c.CompressedBytes())
	}
	st := c.Stats()
	if st.DataWrites == 0 {
		t.Fatal("no data write recorded")
	}
	// The line reads back with a data access now.
	c.ReadLine(1000, 3)
	if c.Stats().DataReads == 0 {
		t.Fatal("read of compressed line did not access memory")
	}
	// Other lines of the page are still zero-slot: metadata only.
	before := c.Stats().ZeroLineOps
	c.ReadLine(2000, 4)
	if c.Stats().ZeroLineOps != before+1 {
		t.Fatal("zero-slot line not served from metadata")
	}
}

func TestInstallPageCompressionRatio(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(2)
	// Page of sequential ints: every line -> 8 B bin, fresh = 512 B.
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	if c.CompressedBytes() != 512 {
		t.Fatalf("seq page allocated %d bytes, want 512", c.CompressedBytes())
	}
	if ratio := memctl.CompressionRatio(c); ratio != 8 {
		t.Fatalf("ratio = %v, want 8", ratio)
	}
	// Page of random data: incompressible, stored uncompressed.
	installPage(c, im, 1, pageOfLines(r, datagen.Random))
	if c.CompressedBytes() != 512+4096 {
		t.Fatalf("after random page: %d bytes", c.CompressedBytes())
	}
}

func TestInstallPageZero(t *testing.T) {
	c, im := testController(nil)
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = make([]byte, 64)
	}
	installPage(c, im, 0, lines)
	if c.CompressedBytes() != 0 {
		t.Fatal("zero page allocated chunks")
	}
	c.ReadLine(0, 0)
	if c.Stats().ZeroLineOps != 1 {
		t.Fatal("installed zero page read was not metadata-only")
	}
}

func TestReadAccountsMetadataMiss(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(3)
	installPage(c, im, 0, pageOfLines(r, datagen.SmallInt))
	c.ReadLine(0, 0)
	st := c.Stats()
	if st.MetadataReads != 1 {
		t.Fatalf("MetadataReads = %d, want 1 (cold)", st.MetadataReads)
	}
	c.ReadLine(100, 1)
	if c.Stats().MetadataReads != 1 {
		t.Fatal("second read of same page missed metadata cache")
	}
}

func TestSplitAccessesLegacyVsAligned(t *testing.T) {
	splits := func(bins compress.Bins) uint64 {
		c, im := testController(func(cfg *Config) { cfg.Bins = bins })
		r := rng.New(4)
		for p := uint64(0); p < 16; p++ {
			installPage(c, im, p, pageOfLines(r, datagen.SmallInt))
		}
		now := uint64(0)
		for p := uint64(0); p < 16; p++ {
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
		t.Fatalf("aligned bins split %d vs legacy %d; want fewer", aligned, legacy)
	}
	if legacy == 0 {
		t.Fatal("legacy bins produced no splits at all")
	}
}

func TestLineOverflowGoesToInflationRoom(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.PredictOverflows = false
	})
	r := rng.New(5)
	// Page compresses to 8 B lines -> 1 chunk, no slack beyond tail.
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	// Overwrite line 0 with incompressible data: overflow.
	write(c, im, 0, 0, datagen.Line(r, datagen.Random))
	st := c.Stats()
	if st.LineOverflows != 1 {
		t.Fatalf("LineOverflows = %d", st.LineOverflows)
	}
	if st.IRPlacements+st.IRExpansions == 0 && st.PageOverflows == 0 {
		t.Fatal("overflow neither inflated nor overflowed the page")
	}
	// The overflowed line must read back as a full-line access.
	dr := c.Stats().DataReads
	c.ReadLine(1e6, 0)
	if c.Stats().DataReads != dr+1 {
		t.Fatal("inflated line read did not access memory once")
	}
}

func TestIRExpansionCheaperThanPageOverflow(t *testing.T) {
	run := func(expand bool) memctl.Stats {
		c, im := testController(func(cfg *Config) {
			cfg.PredictOverflows = false
			cfg.DynamicIRExpansion = expand
		})
		r := rng.New(6)
		installPage(c, im, 0, pageOfLines(r, datagen.Seq)) // 1 chunk
		now := uint64(0)
		// Overflow seven lines: the 512 B page has room for at most a
		// few IR slots before it must grow.
		for l := uint64(0); l < 7; l++ {
			write(c, im, now, l, datagen.Line(r, datagen.Random))
			now += 1000
		}
		return c.Stats()
	}
	with := run(true)
	without := run(false)
	if with.IRExpansions == 0 {
		t.Fatalf("no IR expansions recorded: %+v", with)
	}
	if with.OverflowAccesses >= without.OverflowAccesses {
		t.Fatalf("IR expansion did not reduce overflow movement: %d vs %d",
			with.OverflowAccesses, without.OverflowAccesses)
	}
	if without.PageOverflows == 0 {
		t.Fatal("baseline without expansion never page-overflowed")
	}
}

func TestPageOverflowRelocates(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.PredictOverflows = false
		cfg.DynamicIRExpansion = false
	})
	r := rng.New(7)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq)) // 1 chunk
	now := uint64(0)
	for l := uint64(0); l < 8; l++ {
		write(c, im, now, l, datagen.Line(r, datagen.Random))
		now += 1000
	}
	st := c.Stats()
	if st.PageOverflows == 0 {
		t.Fatalf("no page overflow: %+v", st)
	}
	if st.OverflowAccesses == 0 {
		t.Fatal("page overflow recorded no movement")
	}
	if c.CompressedBytes() <= 512 {
		t.Fatalf("page did not grow: %d bytes", c.CompressedBytes())
	}
	// All data still readable with consistent accounting.
	for l := uint64(0); l < 64; l++ {
		c.ReadLine(now, l)
		now += 1000
	}
}

func TestOverflowPredictionUncompressesPage(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.DynamicIRExpansion = false
	})
	r := rng.New(8)
	// Stream incompressible data over several zero pages: the classic
	// §IV-B2 scenario (zero-initialized buffers receiving real data).
	now := uint64(0)
	for p := uint64(0); p < 8; p++ {
		for l := uint64(0); l < 64; l++ {
			write(c, im, now, p*64+l, datagen.Line(r, datagen.Random))
			now += 500
		}
	}
	st := c.Stats()
	if st.Predictions == 0 {
		t.Fatalf("predictor never fired: %+v", st)
	}
	if c.GlobalPredictorValue() == 0 {
		t.Fatal("global predictor untouched")
	}
	// Compare movement against the same stream without prediction.
	c2, im2 := testController(func(cfg *Config) {
		cfg.PredictOverflows = false
		cfg.DynamicIRExpansion = false
	})
	r2 := rng.New(8)
	now = 0
	for p := uint64(0); p < 8; p++ {
		for l := uint64(0); l < 64; l++ {
			write(c2, im2, now, p*64+l, datagen.Line(r2, datagen.Random))
			now += 500
		}
	}
	if c.Stats().OverflowAccesses >= c2.Stats().OverflowAccesses {
		t.Fatalf("prediction did not reduce overflow movement: %d vs %d",
			c.Stats().OverflowAccesses, c2.Stats().OverflowAccesses)
	}
}

// smallMDCache is a 32-entry metadata cache so that page sweeps cause
// the evictions that trigger repacking.
func smallMDCache(cfg *Config) {
	cfg.MetadataCache = metadata.CacheConfig{SizeBytes: 32 * metadata.EntrySize, Ways: 4, HalfEntry: true}
}

func TestUnderflowTracksFreeSpaceAndRepacks(t *testing.T) {
	c, im := testController(smallMDCache)
	r := rng.New(9)
	// Install an incompressible page (8 chunks, uncompressed).
	installPage(c, im, 0, pageOfLines(r, datagen.Random))
	if c.CompressedBytes() != 4096 {
		t.Fatalf("install: %d bytes", c.CompressedBytes())
	}
	// Overwrite every line with zeros: massive underflow.
	zero := make([]byte, 64)
	now := uint64(0)
	for l := uint64(0); l < 64; l++ {
		write(c, im, now, l, zero)
		now += 1000
	}
	// Evict page 0's metadata by touching many other pages, triggering
	// the repack check.
	for p := uint64(1); p < 256; p++ {
		c.ReadLine(now, p*64)
		now += 1000
	}
	if c.Stats().Repacks == 0 {
		t.Fatalf("no repack occurred: %+v", c.Stats())
	}
	if c.CompressedBytes() != 0 {
		t.Fatalf("all-zero page still uses %d bytes after repack", c.CompressedBytes())
	}
}

func TestRepackRestoresCompressionAfterPrediction(t *testing.T) {
	c, im := testController(smallMDCache)
	r := rng.New(10)
	now := uint64(0)
	// Force pages uncompressed via streaming incompressible writes.
	for p := uint64(0); p < 4; p++ {
		for l := uint64(0); l < 64; l++ {
			write(c, im, now, p*64+l, datagen.Line(r, datagen.Random))
			now += 500
		}
	}
	// Now the data becomes compressible again.
	for p := uint64(0); p < 4; p++ {
		for l := uint64(0); l < 64; l++ {
			write(c, im, now, p*64+l, datagen.Line(r, datagen.Seq))
			now += 500
		}
	}
	grown := c.CompressedBytes()
	// Thrash the metadata cache to force evictions -> repacks.
	for p := uint64(4); p < 256; p++ {
		c.ReadLine(now, p*64)
		now += 500
	}
	st := c.Stats()
	if st.Repacks == 0 {
		t.Fatalf("no repacks: %+v", st)
	}
	if c.CompressedBytes() >= grown {
		t.Fatalf("repacking did not reclaim space: %d -> %d", grown, c.CompressedBytes())
	}
}

func TestNoRepackingSquandersCompression(t *testing.T) {
	run := func(repack bool) int64 {
		c, im := testController(func(cfg *Config) {
			smallMDCache(cfg)
			cfg.DynamicRepacking = repack
		})
		r := rng.New(11)
		now := uint64(0)
		for p := uint64(0); p < 4; p++ {
			installPage(c, im, p, pageOfLines(r, datagen.Random))
		}
		zero := make([]byte, 64)
		for p := uint64(0); p < 4; p++ {
			for l := uint64(0); l < 64; l++ {
				write(c, im, now, p*64+l, zero)
				now += 200
			}
		}
		for p := uint64(4); p < 256; p++ {
			c.ReadLine(now, p*64)
			now += 200
		}
		return c.CompressedBytes()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("repacking (%d bytes) not better than none (%d bytes)", with, without)
	}
}

func TestMetadataBackingRoundTrip(t *testing.T) {
	// Drive a controller through a messy write pattern, then force
	// every entry through Pack/Unpack by thrashing the metadata cache,
	// and verify all data remains addressable and consistent.
	c, im := testController(nil)
	r := rng.New(12)
	kinds := []datagen.Kind{datagen.Seq, datagen.Random, datagen.SmallInt, datagen.Zero}
	now := uint64(0)
	for p := uint64(0); p < 64; p++ {
		installPage(c, im, p, pageOfLines(r, kinds[p%4]))
	}
	for i := 0; i < 5000; i++ {
		p := uint64(r.Intn(64))
		l := uint64(r.Intn(64))
		if r.Bool(0.4) {
			write(c, im, now, p*64+l, datagen.Line(r, kinds[r.Intn(4)]))
		} else {
			c.ReadLine(now, p*64+l)
		}
		now += 300
	}
	// Thrash: touch all 256 pages repeatedly.
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 256; p++ {
			c.ReadLine(now, p*64)
			now += 300
		}
	}
	// Everything still readable; metadata invariants hold.
	for p := uint64(0); p < 64; p++ {
		for l := uint64(0); l < 64; l++ {
			c.ReadLine(now, p*64+l)
			now += 10
		}
	}
}

func TestHalfEntryImprovesHitRate(t *testing.T) {
	run := func(half bool) float64 {
		c, im := testController(func(cfg *Config) {
			cfg.MetadataCache = metadata.CacheConfig{SizeBytes: 8 * metadata.EntrySize, Ways: 4, HalfEntry: half}
		})
		r := rng.New(13)
		// Uncompressed (incompressible) pages: the case §IV-B5 targets.
		for p := uint64(0); p < 12; p++ {
			installPage(c, im, p, pageOfLines(r, datagen.Random))
		}
		now := uint64(0)
		for i := 0; i < 4000; i++ {
			p := uint64(r.Intn(12))
			c.ReadLine(now, p*64+uint64(r.Intn(64)))
			now += 100
		}
		return c.MetadataCacheStats().HitRate()
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("half-entry opt did not improve hit rate: %.3f vs %.3f", with, without)
	}
}

func TestDiscardFreesStorage(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(14)
	installPage(c, im, 0, pageOfLines(r, datagen.SmallInt))
	if c.CompressedBytes() == 0 {
		t.Fatal("nothing allocated")
	}
	c.Discard(0)
	if c.CompressedBytes() != 0 {
		t.Fatal("Discard left storage allocated")
	}
	if c.InstalledBytes() != 0 {
		t.Fatal("Discard left page installed")
	}
	// Page is reusable: a read first-touches it as zero.
	c.ReadLine(0, 0)
	if c.Stats().ZeroLineOps == 0 {
		t.Fatal("discarded page not reusable")
	}
}

func TestMemoryPressureCallback(t *testing.T) {
	var pressured bool
	var victim *Controller
	im := newImage()
	cfg := DefaultConfig(64, 64*metadata.EntrySize+2*512) // room for only 2 chunks
	cfg.OnMemoryPressure = func(need int) bool {
		pressured = true
		victim.Discard(0) // balloon reclaims page 0
		return true
	}
	mem := dram.New(dram.DDR4_2666())
	c := New(cfg, mem, im)
	victim = c
	r := rng.New(15)
	// Two compressible pages fill both chunks.
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	installPage(c, im, 1, pageOfLines(r, datagen.Seq))
	// A third page forces pressure.
	write(c, im, 0, 2*64, datagen.Line(r, datagen.SmallInt))
	if !pressured {
		t.Fatal("pressure callback never invoked")
	}
}

func TestVariableChunksGrowByRelocation(t *testing.T) {
	c, im := testController(func(cfg *Config) {
		cfg.Allocation = VariableChunks
		cfg.PageSizes = []int{1, 2, 4, 8}
		cfg.PredictOverflows = false
		cfg.DynamicIRExpansion = false // not possible with variable chunks
	})
	r := rng.New(16)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq)) // 512 B block
	if c.CompressedBytes() != 512 {
		t.Fatalf("install: %d", c.CompressedBytes())
	}
	now := uint64(0)
	for l := uint64(0); l < 16; l++ {
		write(c, im, now, l, datagen.Line(r, datagen.Random))
		now += 1000
	}
	if c.Stats().PageOverflows == 0 {
		t.Fatal("no page overflow with variable chunks")
	}
	// Block sizes are restricted to 512B/1K/2K/4K.
	if cb := c.CompressedBytes(); cb != 1024 && cb != 2048 && cb != 4096 {
		t.Fatalf("CompressedBytes = %d, not a power-of-two block", cb)
	}
}

func TestEightPageSizesBeatFourOnFootprint(t *testing.T) {
	footprint := func(sizes []int) int64 {
		c, im := testController(func(cfg *Config) { cfg.PageSizes = sizes })
		r := rng.New(17)
		// Pages with mid-range compressibility land between the coarse
		// size points.
		for p := uint64(0); p < 8; p++ {
			lines := make([][]byte, 64)
			for i := range lines {
				if i%2 == 0 {
					lines[i] = datagen.Line(r, datagen.Random)
				} else {
					lines[i] = datagen.Line(r, datagen.Seq)
				}
			}
			installPage(c, im, p, lines)
		}
		return c.CompressedBytes()
	}
	eight := footprint([]int{1, 2, 3, 4, 5, 6, 7, 8})
	four := footprint([]int{2, 4, 6, 8})
	if eight >= four {
		t.Fatalf("8 page sizes (%d) not tighter than 4 (%d)", eight, four)
	}
}

func TestPrefetchBufferSavesAccesses(t *testing.T) {
	run := func(buf int) uint64 {
		c, im := testController(func(cfg *Config) { cfg.PrefetchBuffer = buf })
		r := rng.New(18)
		installPage(c, im, 0, pageOfLines(r, datagen.Seq)) // 8 B lines: 8 per burst
		now := uint64(0)
		for l := uint64(0); l < 64; l++ {
			c.ReadLine(now, l)
			now += 200
		}
		return c.Stats().DataReads
	}
	with := run(8)
	without := run(0)
	if with >= without {
		t.Fatalf("prefetch buffer saved nothing: %d vs %d reads", with, without)
	}
}

func TestStatsExtrasComposition(t *testing.T) {
	var s memctl.Stats
	s.SplitAccesses = 2
	s.OverflowAccesses = 3
	s.MetadataReads = 4
	s.MetadataWrites = 1
	s.RepackAccesses = 5
	s.SpeculationMiss = 6
	if s.ExtraAccesses() != 21 {
		t.Fatalf("ExtraAccesses = %d", s.ExtraAccesses())
	}
	s.DemandReads, s.DemandWrites = 20, 22
	if s.RelativeExtra() != 0.5 {
		t.Fatalf("RelativeExtra = %v", s.RelativeExtra())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.OSPAPages = 0 },
		func(c *Config) { c.PageSizes = []int{1, 2} },
		func(c *Config) { c.PageSizes = []int{8, 4} },
		func(c *Config) { c.Codec = nil },
		func(c *Config) { c.MachineBytes = 10 },
	}
	for i, mut := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config accepted", i)
				}
			}()
			cfg := DefaultConfig(256, 1<<20)
			mut(&cfg)
			New(cfg, dram.New(dram.DDR4_2666()), newImage())
		}()
	}
}

func TestWriteLinePanicsOnBadLength(t *testing.T) {
	c, _ := testController(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("short write did not panic")
		}
	}()
	c.WriteLine(0, 0, make([]byte, 32))
}

func TestOutOfRangePagePanics(t *testing.T) {
	c, _ := testController(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	c.ReadLine(0, 256*64)
}

// TestRandomizedConsistency drives a controller with a random mixed
// workload and checks global invariants at the end.
func TestRandomizedConsistency(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(19)
	kinds := []datagen.Kind{datagen.Zero, datagen.Seq, datagen.SmallInt, datagen.Random, datagen.Pointer, datagen.Text}
	now := uint64(0)
	for p := uint64(0); p < 32; p++ {
		installPage(c, im, p, pageOfLines(r, kinds[int(p)%len(kinds)]))
	}
	for i := 0; i < 30000; i++ {
		p := uint64(r.Intn(48)) // includes never-installed pages
		l := uint64(r.Intn(64))
		if r.Bool(0.35) {
			write(c, im, now, p*64+l, datagen.Line(r, kinds[r.Intn(len(kinds))]))
		} else {
			c.ReadLine(now, p*64+l)
		}
		now += 50
	}
	st := c.Stats()
	if st.DemandAccesses() != 30000 {
		t.Fatalf("demand ops %d, want 30000", st.DemandAccesses())
	}
	if c.CompressedBytes() > c.InstalledBytes() {
		t.Fatalf("compressed %d > installed %d", c.CompressedBytes(), c.InstalledBytes())
	}
	if st.RelativeExtra() < 0 || st.RelativeExtra() > 3 {
		t.Fatalf("relative extra %v implausible", st.RelativeExtra())
	}
	// Every installed line still resolves without panicking.
	for p := uint64(0); p < 48; p++ {
		for l := uint64(0); l < 64; l++ {
			c.ReadLine(now, p*64+l)
			now += 10
		}
	}
}

func TestPageSizeHistogramAndMetadataBytes(t *testing.T) {
	c, im := testController(nil)
	r := rng.New(23)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))    // 1 chunk
	installPage(c, im, 1, pageOfLines(r, datagen.Random)) // 8 chunks
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = make([]byte, 64)
	}
	installPage(c, im, 2, lines) // zero page: 0 chunks
	var sizes []int
	c.PageSizeHistogramAdd(func(chunks int) { sizes = append(sizes, chunks) })
	if len(sizes) != 3 {
		t.Fatalf("histogram saw %d pages", len(sizes))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 9 {
		t.Fatalf("chunk total %d, want 9 (1+8+0)", total)
	}
	if c.MetadataBytes() != 256*64 {
		t.Fatalf("MetadataBytes = %d", c.MetadataBytes())
	}
}

func TestDiscardPinnedPageSkipped(t *testing.T) {
	// The pressure path can try to balloon away the page being written;
	// the pin must protect it.
	c, im := testController(nil)
	r := rng.New(29)
	installPage(c, im, 0, pageOfLines(r, datagen.Seq))
	c.pin(0)
	c.Discard(0)
	c.unpin()
	if c.InstalledBytes() == 0 {
		t.Fatal("pinned page was discarded")
	}
	c.Discard(0)
	if c.InstalledBytes() != 0 {
		t.Fatal("unpinned discard failed")
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
