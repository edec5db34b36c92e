// Package cxl implements a CXL-expander memory tier in the spirit of
// the IBEX line of work (PAPERS.md): the OSPA footprint is split
// between local DDR (the near tier) and a second dram.Memory inside a
// CXL expander (the far tier) reached over a serialized link. The
// link — not the expander's internal DRAM — is the scarce resource,
// so it is modeled explicitly: every far access serializes header and
// payload flits through per-direction link cursors with queueing and
// busy-cycle accounting, and line compression pays off by shrinking
// the payload flit count rather than by freeing capacity
// (CompressedBytes == InstalledBytes, ratio 1.0).
//
// The page-to-tier split is deterministic (the first NearFraction of
// OSPA pages are near), so runs are bit-identical at any -jobs, and
// the far tier's DRAM stats and link counters feed the existing
// energy/stat rollups under the "cxl.far" / "cxl.link" prefixes.
package cxl

import (
	"fmt"

	"compresso/internal/audit"
	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/obs"
)

// Config parameterizes the CXL two-tier controller.
type Config struct {
	// OSPAPages is the footprint; both tiers store lines in place, so
	// it needs no machine-memory budget.
	OSPAPages int

	// NearFraction of the OSPA pages live in local DDR; the rest sit
	// behind the link in the expander.
	NearFraction float64

	// Far is the expander's internal DRAM configuration.
	Far dram.Config

	// LinkLatency is the propagation + protocol cost in core cycles
	// added per link traversal (each direction).
	LinkLatency uint64
	// FlitBytes is the link serialization granularity.
	FlitBytes int
	// LinkCyclesPerFlit is the core cycles one flit occupies its
	// direction's link.
	LinkCyclesPerFlit uint64

	// Codec compresses far-tier lines at the link endpoints (IBEX):
	// compressible lines need fewer payload flits. Nil sends raw.
	Codec compress.Codec

	// CompressLatency delays the link issue of a (posted) far write;
	// DecompressLatency lands on the critical path of compressed far
	// reads.
	CompressLatency   uint64
	DecompressLatency uint64
}

// DefaultConfig returns the expander setup used by the sweeps: half
// the footprint far, an x8-class link (~16 B/3 core cycles) that adds
// ~45 ns each way on a 3 GHz core clock, BDI at the link endpoints.
func DefaultConfig(ospaPages int) Config {
	return Config{
		OSPAPages:         ospaPages,
		NearFraction:      0.5,
		Far:               dram.DDR4_2666(),
		LinkLatency:       135,
		FlitBytes:         16,
		LinkCyclesPerFlit: 3,
		Codec:             compress.BDI{},
		CompressLatency:   9,
		DecompressLatency: 9,
	}
}

// linkStats is the serialized-link accounting exported under the
// "cxl.link" metric prefix.
type linkStats struct {
	Reads       uint64 // far read transactions
	Writes      uint64 // far write transactions
	FlitsSent   uint64 // header + payload flits, both directions
	BusyCycles  uint64 // core cycles of link occupancy
	QueueCycles uint64 // core cycles transactions waited for the link
}

// Controller is the CXL two-tier memory controller.
type Controller struct {
	cfg Config
	// near issues to local DDR, far to the expander's DRAM (farMem);
	// both count into stats and charge the same ledger.
	near, far memctl.Port
	farMem    *dram.Memory
	source    memctl.LineSource

	nearPages uint64
	// sizes shadows far lines' compressed sizes (the flit-count
	// input); near-tier entries stay zero and unused.
	sizes []uint8
	valid []bool

	// Per-direction link serialization cursors (full-duplex link).
	reqFree  uint64
	respFree uint64

	stats      memctl.Stats
	link       linkStats
	validPages int64

	lineBuf [memctl.LineBytes]byte
}

var _ memctl.Controller = (*Controller)(nil)
var _ audit.Auditable = (*Controller)(nil)

// New builds a CXL two-tier controller: near accesses go to mem, far
// accesses cross the link into the controller's own expander DRAM.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 {
		panic("cxl: OSPAPages must be positive")
	}
	if cfg.NearFraction < 0 || cfg.NearFraction > 1 {
		panic(fmt.Sprintf("cxl: NearFraction %v outside [0,1]", cfg.NearFraction))
	}
	if cfg.FlitBytes <= 0 {
		panic("cxl: FlitBytes must be positive")
	}
	c := &Controller{
		cfg:       cfg,
		farMem:    dram.New(cfg.Far),
		source:    source,
		nearPages: uint64(float64(cfg.OSPAPages) * cfg.NearFraction),
		sizes:     make([]uint8, cfg.OSPAPages*memctl.LinesPerPage),
		valid:     make([]bool, cfg.OSPAPages),
	}
	c.near = memctl.NewPort(mem, &c.stats, 0)
	c.far = memctl.NewPort(c.farMem, &c.stats, 0)
	return c
}

// Name implements memctl.Controller.
func (c *Controller) Name() string { return "cxl" }

// SetAttribution installs the cycle-accounting ledger (nil disables).
// Link-latency propagation is attributed to the header component on
// the request direction and to the payload component on the response
// direction, so the two per-direction traversals stay distinguishable.
func (c *Controller) SetAttribution(a *obs.Attribution) {
	c.near.SetAttribution(a)
	c.far.SetAttribution(a)
}

// FarStats returns the expander DRAM's accumulated counters.
func (c *Controller) FarStats() dram.Stats { return c.farMem.Stats() }

// LinkStats returns the serialized link's accumulated counters.
func (c *Controller) LinkStats() (reads, writes, flits, busy, queue uint64) {
	return c.link.Reads, c.link.Writes, c.link.FlitsSent, c.link.BusyCycles, c.link.QueueCycles
}

func (c *Controller) checkAddr(lineAddr uint64) {
	if lineAddr >= uint64(len(c.sizes)) {
		panic(fmt.Sprintf("cxl: line %d outside %d-page footprint", lineAddr, c.cfg.OSPAPages))
	}
}

func (c *Controller) isFar(page uint64) bool { return page >= c.nearPages }

// sizeOf computes a line's link-compressed size (LineBytes when no
// codec is configured).
func (c *Controller) sizeOf(data []byte) uint8 {
	if c.cfg.Codec == nil {
		return memctl.LineBytes
	}
	n := compress.SizeOnly(c.cfg.Codec, data)
	if n > memctl.LineBytes {
		n = memctl.LineBytes
	}
	if n < 1 {
		n = 1
	}
	return uint8(n)
}

// payloadFlits returns the flit count for a compressed payload of
// size bytes.
func (c *Controller) payloadFlits(size uint8) uint64 {
	f := (uint64(size) + uint64(c.cfg.FlitBytes) - 1) / uint64(c.cfg.FlitBytes)
	if f < 1 {
		f = 1
	}
	return f
}

// sendFlits serializes flits onto one link direction starting no
// earlier than ready, advancing the direction's cursor and the shared
// accounting. It returns the cycle the last flit clears the link plus
// the queue-wait and occupancy cycles (done-ready == queued+occupied),
// which the attribution call sites split into link components.
func (c *Controller) sendFlits(ready uint64, cursor *uint64, flits uint64) (done, queued, occupied uint64) {
	start := ready
	if *cursor > start {
		start = *cursor
		queued = start - ready
		c.link.QueueCycles += queued
	}
	occupied = flits * c.cfg.LinkCyclesPerFlit
	done = start + occupied
	*cursor = done
	c.link.BusyCycles += occupied
	c.link.FlitsSent += flits
	return done, queued, occupied
}

// ReadLine implements memctl.Controller.
func (c *Controller) ReadLine(now uint64, lineAddr uint64) memctl.Result {
	c.checkAddr(lineAddr)
	c.stats.DemandReads++
	page := lineAddr / memctl.LinesPerPage
	attr := c.near.Attr()
	attr.Begin(now, page, false)
	if !c.isFar(page) {
		done, queue, service := c.near.Read(now, lineAddr)
		attr.ExposedDRAM(queue, service)
		attr.End(done)
		return memctl.Result{Done: done}
	}

	// Request header crosses the link, the expander's DRAM serves the
	// line, and the (compressed) payload serializes back.
	c.link.Reads++
	reqDone, reqQueued, reqOcc := c.sendFlits(now, &c.reqFree, 1)
	attr.Exposed(obs.CompLinkQueue, reqQueued)
	attr.Exposed(obs.CompLinkHeader, reqOcc+c.cfg.LinkLatency)
	farDone, queue, service := c.far.Read(reqDone+c.cfg.LinkLatency, lineAddr)
	attr.ExposedDRAM(queue, service)
	size := c.sizes[lineAddr]
	respDone, respQueued, respOcc := c.sendFlits(farDone+c.cfg.LinkLatency, &c.respFree, 1+c.payloadFlits(size))
	attr.Exposed(obs.CompLinkQueue, respQueued)
	attr.Exposed(obs.CompLinkHeader, c.cfg.LinkCyclesPerFlit)
	attr.Exposed(obs.CompLinkPayload, c.cfg.LinkLatency+respOcc-c.cfg.LinkCyclesPerFlit)
	done := respDone
	if c.cfg.Codec != nil && size < memctl.LineBytes {
		done += c.cfg.DecompressLatency
		attr.Exposed(obs.CompDecompress, c.cfg.DecompressLatency)
	}
	attr.End(done)
	return memctl.Result{Done: done}
}

// WriteLine implements memctl.Controller. Writes are posted: the
// compressor, link and expander DRAM are off the critical path.
func (c *Controller) WriteLine(now uint64, lineAddr uint64, data []byte) memctl.Result {
	c.checkAddr(lineAddr)
	c.stats.DemandWrites++
	page := lineAddr / memctl.LinesPerPage
	// Writes are posted: everything below is off the critical path.
	attr := c.near.Attr()
	attr.Begin(now, page, true)
	attr.Posted()
	if !c.isFar(page) {
		c.near.Write(now, lineAddr)
		attr.End(now)
		return memctl.Result{Done: now}
	}

	c.link.Writes++
	size := c.sizeOf(data)
	c.sizes[lineAddr] = size
	reqDone, queued, occupied := c.sendFlits(now+c.cfg.CompressLatency, &c.reqFree, 1+c.payloadFlits(size))
	attr.Hidden(obs.CompLinkQueue, queued)
	attr.Hidden(obs.CompLinkHeader, c.cfg.LinkCyclesPerFlit+c.cfg.LinkLatency)
	attr.Hidden(obs.CompLinkPayload, occupied-c.cfg.LinkCyclesPerFlit)
	c.far.Write(reqDone+c.cfg.LinkLatency, lineAddr)
	attr.End(now)
	return memctl.Result{Done: now}
}

// InstallPage implements memctl.Controller: records far-line sizes
// with no stat or timing charges.
func (c *Controller) InstallPage(page uint64, lines [][]byte) {
	if page >= uint64(c.cfg.OSPAPages) {
		panic(fmt.Sprintf("cxl: page %d outside %d-page footprint", page, c.cfg.OSPAPages))
	}
	if c.isFar(page) {
		base := page * memctl.LinesPerPage
		for i, line := range lines {
			c.sizes[base+uint64(i)] = c.sizeOf(line)
		}
	}
	if !c.valid[page] {
		c.valid[page] = true
		c.validPages++
	}
}

// Stats implements memctl.Controller.
func (c *Controller) Stats() memctl.Stats { return c.stats }

// ResetStats implements memctl.Controller at the warmup boundary:
// clears the demand and link accounting, and the internal far tier's
// DRAM counters and in-flight bus/bank timing plus the link cursors,
// so the first measured far accesses are not charged queue cycles
// for warmup traffic (the near tier belongs to the simulator, which
// resets it alongside).
func (c *Controller) ResetStats() {
	c.stats = memctl.Stats{}
	c.link = linkStats{}
	c.farMem.ResetStats()
	c.farMem.ResetTiming()
	c.reqFree, c.respFree = 0, 0
}

// CompressedBytes implements memctl.Controller: both tiers store
// lines in place — compression buys link bandwidth, not capacity.
func (c *Controller) CompressedBytes() int64 { return c.validPages * memctl.PageSize }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

// RegisterMetrics exports the link and far-tier counters under the
// "cxl" prefix (DESIGN.md §12 stat obligations).
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	r.AddStruct("cxl.link", c.link)
	c.farMem.Stats().Register(r, "cxl.far")
	var nearValid, farValid uint64
	for page, ok := range c.valid {
		if !ok {
			continue
		}
		if c.isFar(uint64(page)) {
			farValid++
		} else {
			nearValid++
		}
	}
	r.Counter("cxl.pages_near").Set(nearValid)
	r.Counter("cxl.pages_far").Set(farValid)
}

// Audit implements audit.Auditable. Structural audits cross-check the
// valid-page tally; Full audits additionally recompute every far
// line's link-compressed size from the authoritative source. Repair
// recomputes the shadow sizes.
func (c *Controller) Audit(scope audit.Scope, repair bool) audit.Report {
	rep := audit.Report{Scope: scope, Ops: c.stats.DemandAccesses()}
	c.stats.AuditRuns++
	var scanned int64
	for page := uint64(0); page < uint64(c.cfg.OSPAPages); page++ {
		if !c.valid[page] {
			continue
		}
		scanned++
		rep.Pages++
		if scope != audit.Full || !c.isFar(page) {
			continue
		}
		dirty := false
		base := page * memctl.LinesPerPage
		for l := base; l < base+memctl.LinesPerPage; l++ {
			c.source.ReadLine(l, c.lineBuf[:])
			if got := c.sizeOf(c.lineBuf[:]); got != c.sizes[l] {
				v := audit.Violation{
					Kind:   audit.SizeShadow,
					Page:   page,
					Detail: fmt.Sprintf("far line %d recorded size %d, source compresses to %d", l, c.sizes[l], got),
				}
				if repair {
					c.sizes[l] = got
					v.Repaired = true
					dirty = true
				}
				rep.Violations = append(rep.Violations, v)
			}
		}
		if dirty {
			c.stats.PagesRepaired++
		}
	}
	if scanned != c.validPages {
		rep.Violations = append(rep.Violations, audit.Violation{
			Kind:     audit.ValidCountDrift,
			Page:     audit.NoPage,
			Detail:   fmt.Sprintf("valid-page counter %d, scan found %d", c.validPages, scanned),
			Repaired: repair,
		})
		if repair {
			c.validPages = scanned
		}
	}
	c.stats.CorruptionsDetected += uint64(len(rep.Violations))
	return rep
}

// Registered backend (DESIGN.md §12).
func init() {
	memctl.RegisterBackend(memctl.Backend{
		Name:         "cxl",
		Desc:         "CXL expander tier: near DDR + far DRAM behind a serialized link with IBEX-style link compression",
		MachineBytes: memctl.BaselineMachineBytes,
		New: func(p memctl.BuildParams) memctl.Controller {
			return New(DefaultConfig(p.OSPAPages), p.Mem, p.Source)
		},
	})
}
