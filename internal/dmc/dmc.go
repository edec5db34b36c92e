// Package dmc implements a Transparent Dual Memory Compression
// baseline in the style of Kim et al. (PACT 2017), the related-work
// system the paper discusses in §VIII: hot pages are kept in a
// low-latency line-compressed format (LCP-packing with BDI), cold
// pages are recompressed with LZ at 1 KB granularity for maximum
// capacity. Region temperature is tracked at 32 KB granularity and
// mechanism switches move whole regions — the "substantial additional
// data movement" the Compresso paper calls out.
//
// The controller implements memctl.Controller so it can be compared
// against Compresso and LCP in the same harness (experiment
// "related-dmc").
package dmc

import (
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/dram"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
)

// Config parameterizes the DMC baseline.
type Config struct {
	OSPAPages    int
	MachineBytes int64

	// Label names the controller ("dmc"; "mxt" for the all-cold
	// MXT-style configuration).
	Label string

	// StartCold installs pages in the cold (LZ 1 KB) format and
	// disables promotion, modeling IBM MXT's uniform coarse-granularity
	// compression (§VIII).
	StartCold bool

	// HotCodec compresses lines of hot pages (BDI per the DMC paper).
	HotCodec compress.Codec
	// Bins quantize hot-page line sizes.
	Bins compress.Bins

	MetadataCache metadata.CacheConfig

	// RegionPages is the temperature-tracking granularity (32 KB = 8
	// pages in the DMC paper).
	RegionPages int
	// ReclassifyEvery is the demand-access interval between
	// temperature scans.
	ReclassifyEvery uint64
	// HotThreshold is the per-region access count (within one scan
	// interval) at or above which a region is hot.
	HotThreshold uint64

	CompressLatency    uint64
	DecompressLatency  uint64
	MetadataHitLatency uint64

	OnMemoryPressure func(needChunks int) bool
}

// DefaultConfig returns a DMC configuration scaled like the other
// controllers.
func DefaultConfig(ospaPages int, machineBytes int64) Config {
	mdc := metadata.DefaultCacheConfig()
	mdc.HalfEntry = false
	return Config{
		OSPAPages:          ospaPages,
		MachineBytes:       machineBytes,
		Label:              "dmc",
		HotCodec:           compress.BDI{},
		Bins:               compress.LegacyBins,
		MetadataCache:      mdc,
		RegionPages:        8,
		ReclassifyEvery:    4096,
		HotThreshold:       4,
		CompressLatency:    9, // BDI is cheaper than BPC
		DecompressLatency:  9,
		MetadataHitLatency: 2,
	}
}

// LZBlockBytes is the cold-page compression granularity (1 KB).
const LZBlockBytes = 1024

const blocksPerPage = memctl.PageSize / LZBlockBytes

// dmcPage is the per-page controller state: the hot format's LCP
// layout and block, plus the cold format's fields.
type dmcPage struct {
	lcp.Page
	cold bool
	// blockBytes are the cold format's per-1KB-block compressed sizes.
	blockBytes [blocksPerPage]int
}

// Controller is the DMC baseline memory controller.
type Controller struct {
	cfg    Config
	port   memctl.Port // DRAM and attribution ledger (no prefetch buffer)
	source memctl.LineSource

	pages []dmcPage
	store *lcp.Store
	mdc   *metadata.Cache

	regionHits []uint64
	sinceScan  uint64

	stats      memctl.Stats
	validPages int64
	// MechanismSwitches counts hot<->cold conversions (DMC's data
	// movement source).
	MechanismSwitches uint64

	lineBuf   [memctl.LineBytes]byte
	blockBuf  [LZBlockBytes]byte
	pinned    uint64
	hasPinned bool

	// tr records controller events (nil disables tracing). DMC event
	// sites all run inside the demand access, so events carry the
	// access cycle directly.
	tr *obs.Tracer
}

var _ memctl.Controller = (*Controller)(nil)

// New builds a DMC controller over mem.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 || cfg.RegionPages <= 0 {
		panic("dmc: invalid config")
	}
	nRegions := (cfg.OSPAPages + cfg.RegionPages - 1) / cfg.RegionPages
	c := &Controller{
		cfg:        cfg,
		source:     source,
		pages:      make([]dmcPage, cfg.OSPAPages),
		store:      lcp.NewStore("dmc", cfg.OSPAPages, cfg.MachineBytes, cfg.OnMemoryPressure),
		mdc:        metadata.NewCache(cfg.MetadataCache),
		regionHits: make([]uint64, nRegions),
	}
	c.port = memctl.NewPort(mem, &c.stats, 0)
	return c
}

// MXTConfig returns an IBM-MXT-style configuration: every page stored
// LZ-compressed at coarse granularity, no hot format. MXT used 1 KB
// sectors behind a large line-granularity L3; the performance cost of
// coarse-granularity access is exactly what this models.
func MXTConfig(ospaPages int, machineBytes int64) Config {
	cfg := DefaultConfig(ospaPages, machineBytes)
	cfg.Label = "mxt"
	cfg.StartCold = true
	cfg.HotThreshold = 1 << 62 // nothing ever promotes
	return cfg
}

// Name implements memctl.Controller.
func (c *Controller) Name() string { return c.cfg.Label }

// Stats implements memctl.Controller.
func (c *Controller) Stats() memctl.Stats { return c.stats }

// ResetStats implements memctl.Controller.
func (c *Controller) ResetStats() {
	c.stats = memctl.Stats{}
	c.mdc.ResetStats()
}

// SetTracer installs the controller-event tracer (nil disables).
func (c *Controller) SetTracer(t *obs.Tracer) { c.tr = t }

// SetAttribution installs the cycle-accounting ledger (nil disables).
func (c *Controller) SetAttribution(a *obs.Attribution) { c.port.SetAttribution(a) }

// MetadataCacheStats returns the metadata cache counters.
func (c *Controller) MetadataCacheStats() metadata.CacheStats { return c.mdc.Stats() }

// CompressedBytes implements memctl.Controller.
func (c *Controller) CompressedBytes() int64 { return c.store.UsedBytes() }

// InstalledBytes implements memctl.Controller.
func (c *Controller) InstalledBytes() int64 { return c.validPages * memctl.PageSize }

func (c *Controller) checkPage(page uint64) {
	if page >= uint64(len(c.pages)) {
		panic(fmt.Sprintf("dmc: OSPA page %d beyond advertised %d", page, len(c.pages)))
	}
}

// --- layout helpers ---------------------------------------------------

// storedBytes returns the bytes the page's current format occupies.
func storedBytes(p *dmcPage) int {
	if !p.cold {
		return p.Bytes()
	}
	total := 0
	for _, b := range p.blockBytes {
		total += b
	}
	return total
}

func (c *Controller) compressCode(data []byte) uint8 {
	n := compress.SizeOnly(c.cfg.HotCodec, data)
	return uint8(c.cfg.Bins.Code(n))
}

// binBytes returns the hot-format size in bytes of bin code.
func (c *Controller) binBytes(code uint8) uint8 { return uint8(c.cfg.Bins.SizeOf(int(code))) }
