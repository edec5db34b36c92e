// Package cram implements a CRAM-style bandwidth-enhancement memory
// controller in the spirit of Young et al. ("CRAM: Efficient Hardware-
// Based Memory Compression for Bandwidth Enhancement", PAPERS.md):
// compression is used not to grow capacity but to make DRAM bursts
// denser. Aligned line pairs that both compress to half a line are
// packed into the even line's slot, so one 64-byte burst returns both
// lines; the partner is held in a small burst buffer and served as a
// free prefetch hit. A per-page saturating predictor guesses whether
// an accessed line is packed — CRAM's alternative to LCP/Compresso's
// translation metadata — and a misprediction costs exactly one wasted
// DRAM access, accounted with the paper's extra-access categories
// (SpeculationMiss), so the Fig. 4/6 denominators apply verbatim.
//
// OSPA == MPA throughout: CRAM trades zero capacity benefit
// (CompressedBytes == InstalledBytes, ratio 1.0) for bandwidth, the
// mirror image of the capacity-first backends in this repo.
package cram

import (
	"fmt"

	"compresso/internal/audit"
	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/obs"
)

// Config parameterizes the CRAM controller.
type Config struct {
	// OSPAPages is the footprint; CRAM keeps the uncompressed layout,
	// so it needs no machine-memory budget.
	OSPAPages int

	// Codec compresses lines (BDI in the CRAM paper: single-cycle-class
	// latency is what makes in-burst packing viable).
	Codec compress.Codec

	// PackThreshold is the compressed size (bytes) at or under which a
	// line is packable; both lines of an aligned pair must qualify for
	// the pair to share one slot (half a burst each).
	PackThreshold int

	// CompressLatency delays the DRAM issue of a (posted) writeback by
	// the compressor pipeline depth.
	CompressLatency uint64
	// DecompressLatency is added to the critical path of reads served
	// from a packed slot.
	DecompressLatency uint64

	// PrefetchBuffer is the burst-buffer depth in pairs: partners of
	// recently fetched packed pairs served without DRAM access.
	PrefetchBuffer int
}

// DefaultConfig returns the CRAM setup used by the sweeps.
func DefaultConfig(ospaPages int) Config {
	return Config{
		OSPAPages:         ospaPages,
		Codec:             compress.BDI{},
		PackThreshold:     memctl.LineBytes / 2,
		CompressLatency:   9, // BDI-class pipeline
		DecompressLatency: 9,
		PrefetchBuffer:    8,
	}
}

// cramStats is the backend-specific accounting exported under the
// "cram" metric prefix, on top of the shared memctl.Stats.
type cramStats struct {
	PackedReads     uint64 // demand reads served from a packed slot
	UnpackedReads   uint64 // demand reads served from a private slot
	PredictorHits   uint64 // location predictions that matched
	PredictorMisses uint64 // location predictions that cost a wasted access
	Packs           uint64 // pair transitions unpacked -> packed
	Unpacks         uint64 // pair transitions packed -> unpacked
}

// Controller is the CRAM bandwidth-enhancement memory controller.
type Controller struct {
	cfg    Config
	port   memctl.Port // DRAM and attribution ledger
	source memctl.LineSource

	// sizes shadows every line's current compressed size; packed holds
	// the per-pair layout state the predictor is guessing.
	sizes  []uint8
	packed []bool
	valid  []bool
	// pred is the per-page 2-bit saturating packed-location predictor
	// (>= 2 predicts "packed").
	pred []uint8

	// prefetch is the burst-buffer FIFO of pair-base line addresses
	// whose partner halves are on chip. It is keyed by pair and checked
	// before the location prediction, so CRAM keeps it rather than the
	// port (whose prefetch buffer is empty).
	prefetch memctl.LineFIFO

	stats      memctl.Stats
	cram       cramStats
	validPages int64

	lineBuf [memctl.LineBytes]byte
}

var _ memctl.Controller = (*Controller)(nil)
var _ audit.Auditable = (*Controller)(nil)

// New builds a CRAM controller over mem.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 {
		panic("cram: OSPAPages must be positive")
	}
	if cfg.PackThreshold <= 0 || cfg.PackThreshold > memctl.LineBytes/2 {
		panic(fmt.Sprintf("cram: PackThreshold %d outside (0, %d]", cfg.PackThreshold, memctl.LineBytes/2))
	}
	lines := cfg.OSPAPages * memctl.LinesPerPage
	c := &Controller{
		cfg:      cfg,
		source:   source,
		sizes:    make([]uint8, lines),
		packed:   make([]bool, lines/2),
		valid:    make([]bool, cfg.OSPAPages),
		pred:     make([]uint8, cfg.OSPAPages),
		prefetch: memctl.NewLineFIFO(cfg.PrefetchBuffer),
	}
	c.port = memctl.NewPort(mem, &c.stats, 0)
	return c
}

// Name implements memctl.Controller.
func (c *Controller) Name() string { return "cram" }

// SetAttribution installs the cycle-accounting ledger (nil disables).
func (c *Controller) SetAttribution(a *obs.Attribution) { c.port.SetAttribution(a) }

func (c *Controller) checkAddr(lineAddr uint64) {
	if lineAddr >= uint64(len(c.sizes)) {
		panic(fmt.Sprintf("cram: line %d outside %d-page footprint", lineAddr, c.cfg.OSPAPages))
	}
}

// sizeOf computes the stored compressed size of a 64-byte value.
func (c *Controller) sizeOf(data []byte) uint8 {
	n := compress.SizeOnly(c.cfg.Codec, data)
	if n > memctl.LineBytes {
		n = memctl.LineBytes
	}
	return uint8(n)
}

func (c *Controller) pairPackable(pair uint64) bool {
	t := uint8(c.cfg.PackThreshold)
	return c.sizes[2*pair] <= t && c.sizes[2*pair+1] <= t
}

// predictPacked consults and later trains the page's location
// predictor; the actual state is only discovered by the access itself
// (the ECC-marker check of the CRAM paper).
func (c *Controller) predictPacked(page uint64) bool { return c.pred[page] >= 2 }

func (c *Controller) trainPredictor(page uint64, packed bool) {
	if packed {
		if c.pred[page] < 3 {
			c.pred[page]++
		}
	} else if c.pred[page] > 0 {
		c.pred[page]--
	}
}

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	c.checkAddr(lineAddr)
	c.stats.DemandReads++
	attr := c.port.Attr()
	attr.Begin(now, lineAddr/memctl.LinesPerPage, false)

	pair := lineAddr / 2
	pairBase := pair * 2
	if c.prefetch.Contains(pairBase) {
		// Partner half of a previously fetched packed burst: no DRAM
		// access, decompression already done at fill time.
		c.stats.PrefetchHits++
		attr.End(now)
		return memctl.Result{Done: now}
	}

	page := lineAddr / memctl.LinesPerPage
	isPacked := c.packed[pair]
	predicted := c.predictPacked(page)
	c.stats.Predictions++

	// The predicted location is accessed first; a wrong guess is
	// discovered from the returned data (the paper's ECC-marker check)
	// and retried at the real location, serialized behind the wasted
	// access. For even lines both candidate locations coincide (the
	// packed slot IS the line's own slot), so a misprediction there
	// costs nothing.
	predictedLoc, actualLoc := lineAddr, lineAddr
	if predicted {
		predictedLoc = pairBase
	}
	if isPacked {
		actualLoc = pairBase
	}
	start := now
	if predictedLoc != actualLoc {
		start, _, _ = c.port.Access(now, predictedLoc, false)
		// The wasted access serializes the retry behind it: its whole
		// window is exposed mispredict waste, not DRAM queue/service.
		attr.Exposed(obs.CompSpecMiss, start-now)
		c.stats.SpeculationMiss++
		c.cram.PredictorMisses++
	} else {
		c.cram.PredictorHits++
	}
	done, queue, service := c.port.Read(start, actualLoc)
	attr.ExposedDRAM(queue, service)
	c.trainPredictor(page, isPacked)

	if isPacked {
		c.cram.PackedReads++
		c.prefetch.Push(pairBase) // not buffered: ReadLine returned early otherwise
		done += c.cfg.DecompressLatency
		attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	} else {
		c.cram.UnpackedReads++
	}
	attr.End(done)
	return memctl.Result{Done: done}
}

// WriteLine implements memctl.Controller. Writes are posted: the
// compressor and DRAM are off the critical path.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	c.checkAddr(lineAddr)
	c.stats.DemandWrites++
	// Writes are posted: everything below is off the critical path.
	attr := c.port.Attr()
	attr.Begin(now, lineAddr/memctl.LinesPerPage, true)
	attr.Posted()

	pair := lineAddr / 2
	pairBase := pair * 2
	partner := pairBase + (1 - lineAddr%2)
	c.prefetch.Remove(pairBase) // the buffered copy is stale now

	c.sizes[lineAddr] = c.sizeOf(data)
	was := c.packed[pair]
	can := c.pairPackable(pair)
	issue := now + c.cfg.CompressLatency
	page := lineAddr / memctl.LinesPerPage

	switch {
	case was && can:
		// In-place packed write: one burst rewrites the shared slot.
		c.port.Write(issue, pairBase)
	case was && !can:
		// Overflow: the pair no longer fits one slot. Write the line to
		// its own slot and move the partner back out — the CRAM unpack
		// movement, charged as an overflow extra access.
		c.port.Write(issue, lineAddr)
		c.port.Hidden(issue, partner, true, obs.CompOverflow)
		c.stats.OverflowAccesses++
		c.stats.LineOverflows++
		c.cram.Unpacks++
		c.packed[pair] = false
	case !was && can:
		// Both halves now fit: repack on writeback. The partner must be
		// fetched to build the packed burst — repack movement.
		c.port.Hidden(issue, partner, false, obs.CompRepack)
		c.stats.RepackAccesses++
		c.port.Write(issue, pairBase)
		c.stats.Repacks++
		c.cram.Packs++
		c.packed[pair] = true
	default:
		c.port.Write(issue, lineAddr)
	}
	c.trainPredictor(page, c.packed[pair])
	attr.End(now)
	return memctl.Result{Done: now}
}

// InstallPage implements memctl.Controller: sizes every line and packs
// qualifying pairs with no stat or timing charges.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	if page >= uint64(c.cfg.OSPAPages) {
		panic(fmt.Sprintf("cram: page %d outside %d-page footprint", page, c.cfg.OSPAPages))
	}
	base := page * memctl.LinesPerPage
	for i, line := range lines {
		c.sizes[base+uint64(i)] = c.sizeOf(line)
	}
	for p := base / 2; p < (base+memctl.LinesPerPage)/2; p++ {
		c.packed[p] = c.pairPackable(p)
	}
	if !c.valid[page] {
		c.valid[page] = true
		c.validPages++
	}
}

// Stats implements memctl.Controller.
func (c *Controller) Stats() memctl.Stats { return c.stats }

// ResetStats implements memctl.Controller.
func (c *Controller) ResetStats() {
	c.stats = memctl.Stats{}
	c.cram = cramStats{}
}

// CompressedBytes implements memctl.Controller: CRAM keeps the
// uncompressed layout, so storage equals footprint (ratio 1.0 — the
// whole benefit is bandwidth).
func (c *Controller) CompressedBytes() int64 { return c.validPages * memctl.PageSize }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

// RegisterMetrics exports the backend-specific counters under the
// "cram" prefix (DESIGN.md §12 stat obligations).
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	r.AddStruct("cram", c.cram)
	var packedPairs, validPairs uint64
	for page, ok := range c.valid {
		if !ok {
			continue
		}
		base := uint64(page) * memctl.LinesPerPage / 2
		for p := base; p < base+memctl.LinesPerPage/2; p++ {
			validPairs++
			if c.packed[p] {
				packedPairs++
			}
		}
	}
	if validPairs > 0 {
		r.Gauge("cram.packed_pair_fraction").Set(float64(packedPairs) / float64(validPairs))
	}
}

// Audit implements audit.Auditable. Structural audits cross-check the
// pair layout state against the recorded sizes; Full audits
// additionally recompute every installed line's size from the
// authoritative source. Repair recomputes both from the source.
func (c *Controller) Audit(scope audit.Scope, repair bool) audit.Report {
	rep := audit.Report{Scope: scope, Ops: c.stats.DemandAccesses()}
	c.stats.AuditRuns++
	for page := uint64(0); page < uint64(c.cfg.OSPAPages); page++ {
		if !c.valid[page] {
			continue
		}
		rep.Pages++
		base := page * memctl.LinesPerPage
		dirty := false
		if scope == audit.Full {
			for l := base; l < base+memctl.LinesPerPage; l++ {
				c.source.ReadLine(l, c.lineBuf[:])
				if got := c.sizeOf(c.lineBuf[:]); got != c.sizes[l] {
					v := audit.Violation{
						Kind:   audit.SizeShadow,
						Page:   page,
						Detail: fmt.Sprintf("line %d recorded size %d, source compresses to %d", l, c.sizes[l], got),
					}
					if repair {
						c.sizes[l] = got
						v.Repaired = true
						dirty = true
					}
					rep.Violations = append(rep.Violations, v)
				}
			}
		}
		for p := base / 2; p < (base+memctl.LinesPerPage)/2; p++ {
			if c.packed[p] != c.pairPackable(p) {
				v := audit.Violation{
					Kind:   audit.AllocMismatch,
					Page:   page,
					Detail: fmt.Sprintf("pair %d packed=%v but sizes (%d,%d) say %v", p, c.packed[p], c.sizes[2*p], c.sizes[2*p+1], c.pairPackable(p)),
				}
				if repair {
					c.packed[p] = c.pairPackable(p)
					v.Repaired = true
					dirty = true
					c.stats.RepairAccesses++ // the pair slot is rewritten
				}
				rep.Violations = append(rep.Violations, v)
			}
		}
		if dirty {
			c.stats.PagesRepaired++
		}
	}
	c.stats.CorruptionsDetected += uint64(len(rep.Violations))
	return rep
}

// Registered backend (DESIGN.md §12).
func init() {
	memctl.RegisterBackend(memctl.Backend{
		Name:         "cram",
		Desc:         "CRAM-style bandwidth enhancement: burst-packed line pairs, location predictor, no capacity benefit (Young et al.)",
		MachineBytes: memctl.BaselineMachineBytes,
		New: func(p memctl.BuildParams) memctl.Controller {
			return New(DefaultConfig(p.OSPAPages), p.Mem, p.Source)
		},
	})
}
