package cram

import (
	"testing"

	"compresso/internal/audit"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/memctl"
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

func testController(pages int) (*Controller, *image) {
	im := newImage()
	cfg := DefaultConfig(pages)
	return New(cfg, dram.New(dram.DDR4_2666()), im), im
}

func zeroLine() []byte { return make([]byte, memctl.LineBytes) }

func randomLine(r *rng.Rand) []byte { return datagen.Line(r, datagen.Random) }

// installUniform fills page 0 with copies of line and returns the page.
func installUniform(c *Controller, im *image, line []byte) {
	lines := make([][]byte, memctl.LinesPerPage)
	for i := range lines {
		lines[i] = line
		im.set(uint64(i), line)
	}
	c.InstallPage(0, lines)
}

func TestInstallPacksQualifyingPairs(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())
	for p := 0; p < memctl.LinesPerPage/2; p++ {
		if !c.packed[p] {
			t.Fatalf("pair %d of an all-zero page not packed", p)
		}
	}
	if c.InstalledBytes() != memctl.PageSize || c.CompressedBytes() != memctl.PageSize {
		t.Fatalf("CRAM must not claim capacity: installed %d compressed %d",
			c.InstalledBytes(), c.CompressedBytes())
	}
	if ratio := memctl.CompressionRatio(c); ratio != 1 {
		t.Fatalf("ratio %v, want exactly 1", ratio)
	}
	if st := c.Stats(); st != (memctl.Stats{}) {
		t.Fatalf("InstallPage charged stats: %+v", st)
	}
}

func TestInstallLeavesIncompressiblePairsUnpacked(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, randomLine(rng.New(1)))
	for p := 0; p < memctl.LinesPerPage/2; p++ {
		if c.packed[p] {
			t.Fatalf("pair %d of an incompressible page packed", p)
		}
	}
}

// TestPredictorAndPrefetchAccounting walks the read path through a
// cold predictor: mispredictions are charged as exactly one wasted
// access each, and the partner of a fetched packed pair is a free
// burst-buffer hit.
func TestPredictorAndPrefetchAccounting(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())

	// Cold predictor says "unpacked"; odd lines of packed pairs live in
	// the even slot, so the first two reads are mispredictions.
	c.ReadLine(0, 1)
	if st := c.Stats(); st.SpeculationMiss != 1 || st.DataReads != 1 {
		t.Fatalf("first odd read: SpeculationMiss %d DataReads %d, want 1/1 (wasted + real)",
			st.SpeculationMiss, st.DataReads)
	}
	c.ReadLine(10, 3)
	if c.cram.PredictorMisses != 2 {
		t.Fatalf("PredictorMisses %d after two cold odd reads, want 2", c.cram.PredictorMisses)
	}

	// Two packed observations saturate past the threshold: the third
	// odd read predicts the packed slot correctly.
	c.ReadLine(20, 5)
	if c.cram.PredictorHits != 1 || c.Stats().SpeculationMiss != 2 {
		t.Fatalf("trained read: hits %d misses-extra %d, want 1 hit and no new wasted access",
			c.cram.PredictorHits, c.Stats().SpeculationMiss)
	}

	// Pair 0 was fetched by the read of line 1: its even half is on
	// chip and must be served without DRAM.
	before := c.Stats().DataReads
	res := c.ReadLine(30, 0)
	if st := c.Stats(); st.PrefetchHits != 1 || st.DataReads != before {
		t.Fatalf("buffered partner read: PrefetchHits %d DataReads %d->%d, want a free hit",
			st.PrefetchHits, before, st.DataReads)
	}
	if res.Done != 30 {
		t.Fatalf("buffer hit Done %d, want issue cycle 30", res.Done)
	}
	if c.cram.PackedReads != 3 {
		t.Fatalf("PackedReads %d, want 3 (buffer hits are not DRAM packed reads)", c.cram.PackedReads)
	}
}

// TestEvenLineMispredictionIsFree pins the location-coincidence rule:
// for even lines the packed slot IS the line's own slot, so a wrong
// predictor guess costs nothing.
func TestEvenLineMispredictionIsFree(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())
	c.ReadLine(0, 2) // cold predictor says unpacked, pair is packed — same slot
	if st := c.Stats(); st.SpeculationMiss != 0 || st.DataReads != 1 {
		t.Fatalf("even-line mispredict: SpeculationMiss %d DataReads %d, want 0/1",
			st.SpeculationMiss, st.DataReads)
	}
	if c.cram.PredictorHits != 1 {
		t.Fatalf("coinciding locations must count as a hit, got %d", c.cram.PredictorHits)
	}
}

// TestOverflowUnpackAndRepack drives a pair through the full packed ->
// overflow -> repacked cycle and pins the extra-access taxonomy.
func TestOverflowUnpackAndRepack(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())
	incompressible := randomLine(rng.New(2))

	// Incompressible writeback to line 1: the pair no longer fits one
	// slot — unpack, moving the partner (overflow movement).
	im.set(1, incompressible)
	c.WriteLine(0, 1, incompressible)
	st := c.Stats()
	if c.packed[0] {
		t.Fatal("pair 0 still packed after incompressible write")
	}
	if st.OverflowAccesses != 1 || st.LineOverflows != 1 || c.cram.Unpacks != 1 {
		t.Fatalf("unpack accounting: overflow %d/%d unpacks %d, want 1/1/1",
			st.OverflowAccesses, st.LineOverflows, c.cram.Unpacks)
	}

	// Zero writeback brings the line back under the threshold: repack
	// on writeback, fetching the partner to build the burst.
	im.set(1, zeroLine())
	c.WriteLine(100, 1, zeroLine())
	st = c.Stats()
	if !c.packed[0] {
		t.Fatal("pair 0 not repacked after compressible write")
	}
	if st.RepackAccesses != 1 || st.Repacks != 1 || c.cram.Packs != 1 {
		t.Fatalf("repack accounting: repack accesses %d repacks %d packs %d, want 1/1/1",
			st.RepackAccesses, st.Repacks, c.cram.Packs)
	}

	// Steady-state packed write: exactly one burst, no extras.
	dw := st.DataWrites
	c.WriteLine(200, 0, zeroLine())
	st = c.Stats()
	if st.DataWrites != dw+1 || st.OverflowAccesses != 1 || st.RepackAccesses != 1 {
		t.Fatalf("packed in-place write charged extras: %+v", st)
	}
}

func TestWritesArePostedAndInvalidateBuffer(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())

	c.ReadLine(0, 1) // pulls pair 0 into the burst buffer
	if !c.prefetch.Contains(0) {
		t.Fatal("pair 0 not buffered after packed read")
	}
	res := c.WriteLine(50, 0, zeroLine())
	if res.Done != 50 {
		t.Fatalf("posted write Done %d, want 50", res.Done)
	}
	if c.prefetch.Contains(0) {
		t.Fatal("stale pair 0 still in burst buffer after write")
	}
}

func TestAuditRepairsTamperedState(t *testing.T) {
	c, im := testController(2)
	installUniform(c, im, zeroLine())

	// Tamper both shadow layers behind the controller's back.
	c.sizes[4] = memctl.LineBytes // wrong size shadow
	c.packed[8] = false           // pack state contradicting the sizes

	rep := c.Audit(audit.Full, false)
	var sawSize, sawAlloc bool
	for _, v := range rep.Violations {
		switch v.Kind {
		case audit.SizeShadow:
			sawSize = true
		case audit.AllocMismatch:
			sawAlloc = true
		}
	}
	if !sawSize || !sawAlloc {
		t.Fatalf("audit missed tampering (size %v alloc %v):\n%s", sawSize, sawAlloc, rep)
	}

	rep = c.Audit(audit.Full, true)
	if rep.Repaired() != len(rep.Violations) {
		t.Fatalf("repair left violations: %s", rep)
	}
	if after := c.Audit(audit.Full, false); !after.OK() {
		t.Fatalf("still dirty after repair:\n%s", after)
	}
	if c.Stats().PagesRepaired == 0 || c.Stats().RepairAccesses == 0 {
		t.Fatalf("repair movement not charged: %+v", c.Stats())
	}
}

func TestResetStatsPreservesLayout(t *testing.T) {
	c, im := testController(1)
	installUniform(c, im, zeroLine())
	c.ReadLine(0, 1)
	c.WriteLine(10, 2, zeroLine())
	c.ResetStats()
	if st := c.Stats(); st != (memctl.Stats{}) {
		t.Fatalf("stats not zeroed: %+v", st)
	}
	if c.cram != (cramStats{}) {
		t.Fatalf("cram stats not zeroed: %+v", c.cram)
	}
	if !c.packed[0] {
		t.Fatal("ResetStats disturbed the pair layout")
	}
}
