package cxl

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

// testController builds a 4-page world: pages 0-1 near, pages 2-3 far.
func testController(mod func(*Config)) (*Controller, *image) {
	im := newImage()
	cfg := DefaultConfig(4)
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg, dram.New(dram.DDR4_2666()), im), im
}

func installPage(c *Controller, im *image, page uint64, line []byte) {
	lines := make([][]byte, memctl.LinesPerPage)
	base := page * memctl.LinesPerPage
	for i := range lines {
		lines[i] = line
		im.set(base+uint64(i), line)
	}
	c.InstallPage(page, lines)
}

func farLine(page, i uint64) uint64 { return page*memctl.LinesPerPage + i }

func TestNearFarRouting(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	for p := uint64(0); p < 4; p++ {
		installPage(c, im, p, zero)
	}
	if c.nearPages != 2 {
		t.Fatalf("nearPages %d with NearFraction 0.5 over 4 pages, want 2", c.nearPages)
	}

	c.ReadLine(0, 0) // page 0: near
	if r, _, flits, _, _ := c.LinkStats(); r != 0 || flits != 0 {
		t.Fatalf("near read touched the link: reads %d flits %d", r, flits)
	}
	if c.Stats().DataReads != 1 {
		t.Fatalf("near read DataReads %d, want 1", c.Stats().DataReads)
	}

	c.ReadLine(100, farLine(3, 0)) // page 3: far
	if r, _, flits, _, _ := c.LinkStats(); r != 1 || flits == 0 {
		t.Fatalf("far read link accounting: reads %d flits %d", r, flits)
	}
	if fs := c.FarStats(); fs.Reads != 1 {
		t.Fatalf("far DRAM reads %d, want 1", fs.Reads)
	}
}

// TestFlitAccounting pins the serialization math: one header flit per
// request, one header plus ceil(size/FlitBytes) payload flits per
// response, with compression shrinking the payload.
func TestFlitAccounting(t *testing.T) {
	zero := make([]byte, memctl.LineBytes)
	random := datagen.Line(rng.New(3), datagen.Random)

	for _, tc := range []struct {
		name string
		line []byte
	}{{"compressed", zero}, {"incompressible", random}} {
		t.Run(tc.name, func(t *testing.T) {
			c, im := testController(nil)
			installPage(c, im, 2, tc.line)

			size := c.sizeOf(tc.line)
			wantRead := 1 + (1 + c.payloadFlits(size)) // req header + resp header+payload
			c.ReadLine(0, farLine(2, 0))
			if _, _, flits, _, _ := c.LinkStats(); flits != wantRead {
				t.Fatalf("read sent %d flits, want %d (size %d)", flits, wantRead, size)
			}

			_, _, flits0, _, _ := c.LinkStats()
			res := c.WriteLine(500, farLine(2, 1), tc.line)
			if res.Done != 500 {
				t.Fatalf("posted far write Done %d, want 500", res.Done)
			}
			_, w, flits1, _, _ := c.LinkStats()
			if w != 1 || flits1-flits0 != 1+c.payloadFlits(size) {
				t.Fatalf("write sent %d flits, want %d", flits1-flits0, 1+c.payloadFlits(size))
			}
		})
	}

	// Sanity: the compressed payload must actually be smaller.
	c, _ := testController(nil)
	if c.payloadFlits(c.sizeOf(zero)) >= c.payloadFlits(c.sizeOf(random)) {
		t.Fatalf("compression does not shrink payload: zero %d flits, random %d flits",
			c.payloadFlits(c.sizeOf(zero)), c.payloadFlits(c.sizeOf(random)))
	}
}

// TestLinkQueueing pins that concurrent far transactions serialize on
// the request direction and the wait is charged as queue cycles.
func TestLinkQueueing(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	installPage(c, im, 2, zero)

	c.ReadLine(0, farLine(2, 0))
	c.ReadLine(0, farLine(2, 1)) // same issue cycle: header must wait
	_, _, _, busy, queue := c.LinkStats()
	if queue < c.cfg.LinkCyclesPerFlit {
		t.Fatalf("second transaction did not queue: queue cycles %d", queue)
	}
	if busy == 0 {
		t.Fatal("link busy cycles not accounted")
	}
}

func TestDecompressLatencyOnCompressedReads(t *testing.T) {
	zero := make([]byte, memctl.LineBytes)
	var plain, raw uint64
	c, im := testController(nil)
	installPage(c, im, 2, zero)
	plain = c.ReadLine(0, farLine(2, 0)).Done

	c2, im2 := testController(func(cfg *Config) { cfg.Codec = nil })
	installPage(c2, im2, 2, zero)
	raw = c2.ReadLine(0, farLine(2, 0)).Done

	// Raw link sends 4 payload flits instead of 1 but skips the
	// decompressor; the compressed path must not be slower than raw by
	// more than the decompress latency.
	if plain >= raw+c.cfg.DecompressLatency {
		t.Fatalf("compressed far read (%d) slower than raw link (%d)", plain, raw)
	}
}

func TestCapacityNeutral(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	for p := uint64(0); p < 4; p++ {
		installPage(c, im, p, zero)
	}
	if c.CompressedBytes() != c.InstalledBytes() || c.InstalledBytes() != 4*memctl.PageSize {
		t.Fatalf("CXL must be capacity-neutral: %d vs %d", c.CompressedBytes(), c.InstalledBytes())
	}
	if ratio := memctl.CompressionRatio(c); ratio != 1 {
		t.Fatalf("ratio %v, want exactly 1", ratio)
	}
}

func TestResetStatsClearsLinkAndFarTier(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	installPage(c, im, 3, zero)
	c.ReadLine(0, farLine(3, 0))
	c.WriteLine(10, farLine(3, 1), zero)

	c.ResetStats()
	if st := c.Stats(); st != (memctl.Stats{}) {
		t.Fatalf("stats not zeroed: %+v", st)
	}
	if r, w, f, b, q := c.LinkStats(); r+w+f+b+q != 0 {
		t.Fatalf("link stats not zeroed: %d %d %d %d %d", r, w, f, b, q)
	}
	if fs := c.FarStats(); fs != (dram.Stats{}) {
		t.Fatalf("far tier stats not zeroed: %+v", fs)
	}
}

// TestResetStatsDropsWarmupTiming pins the warmup boundary: traffic
// issued before ResetStats must not leave the link directions or the
// far DRAM's banks and bus busy for the measured phase.
func TestResetStatsDropsWarmupTiming(t *testing.T) {
	c, im := testController(nil)
	random := datagen.Line(rng.New(3), datagen.Random)
	installPage(c, im, 2, random)
	installPage(c, im, 3, random)
	for i := uint64(0); i < 32; i++ {
		c.ReadLine(0, farLine(2, i))
		c.WriteLine(0, farLine(3, i), random)
	}
	if _, _, _, _, q := c.LinkStats(); q == 0 {
		t.Fatal("saturating traffic never queued on the link")
	}
	if fs := c.FarStats(); fs.QueueCycles == 0 {
		t.Fatal("saturating traffic never queued in the far DRAM")
	}

	c.ResetStats()
	c.ReadLine(0, farLine(2, 40))
	if _, _, _, _, q := c.LinkStats(); q != 0 {
		t.Fatalf("first measured far read waited %d link-queue cycles for warmup traffic", q)
	}
	if fs := c.FarStats(); fs.QueueCycles != 0 {
		t.Fatalf("first measured far read waited %d far-DRAM queue cycles for warmup traffic", fs.QueueCycles)
	}
}

func TestAuditRepairsTamperedState(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	installPage(c, im, 2, zero)

	c.sizes[farLine(2, 5)] = memctl.LineBytes // wrong far size shadow
	c.validPages++                            // drifted tally

	rep := c.Audit(audit.Full, false)
	var sawSize, sawDrift bool
	for _, v := range rep.Violations {
		switch v.Kind {
		case audit.SizeShadow:
			sawSize = true
		case audit.ValidCountDrift:
			sawDrift = true
		}
	}
	if !sawSize || !sawDrift {
		t.Fatalf("audit missed tampering (size %v drift %v):\n%s", sawSize, sawDrift, rep)
	}

	rep = c.Audit(audit.Full, true)
	if rep.Repaired() != len(rep.Violations) {
		t.Fatalf("repair left violations: %s", rep)
	}
	if after := c.Audit(audit.Full, false); !after.OK() {
		t.Fatalf("still dirty after repair:\n%s", after)
	}
}

// TestNearTierAuditIgnoresSource pins that near pages carry no shadow
// state: mutating their source must not trip a Full audit.
func TestNearTierAuditIgnoresSource(t *testing.T) {
	c, im := testController(nil)
	zero := make([]byte, memctl.LineBytes)
	installPage(c, im, 0, zero)
	im.set(0, datagen.Line(rng.New(4), datagen.Random))
	if rep := c.Audit(audit.Full, false); !rep.OK() {
		t.Fatalf("near-tier source change tripped the audit:\n%s", rep)
	}
}
