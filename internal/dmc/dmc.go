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
		DecompressLatency:  9, // BDI is cheaper than BPC
		MetadataHitLatency: 2,
	}
}

const (
	blocksPerPage = memctl.PageSize / memctl.LZBlockBytes
	blockLines    = memctl.LZBlockLines
)

// tier is a page's dmc-only state: which format it is in and the cold
// format's per-1KB-block compressed sizes. It describes a valid,
// non-zero page: InstallPage sets it and a zero page's first write
// resets it, so what a discarded page leaves behind is never read.
type tier struct {
	cold       bool
	blockBytes [blocksPerPage]int
}

// Controller is the DMC baseline memory controller: an LCP page
// controller (BDI, legacy bins, no speculation, no prefetch buffer)
// for the hot tier, plus the cold LZ tier, region temperature and the
// conversions between the two.
type Controller struct {
	*lcp.Controller
	cfg    Config
	source memctl.LineSource
	blocks memctl.LZBlockSizer // the source's memoized block sizes (nil when unsupported)

	tiers      []tier
	regionHits []uint64
	sinceScan  uint64
	// mechanismSwitches counts hot<->cold conversions (DMC's data
	// movement source), exported as "<label>.mechanism_switches".
	mechanismSwitches uint64

	lineBuf  [memctl.LineBytes]byte
	blockBuf [memctl.LZBlockBytes]byte
}

var _ memctl.Controller = (*Controller)(nil)

// New builds a DMC controller over mem.
func New(cfg Config, mem *dram.Memory, source memctl.LineSource) *Controller {
	if cfg.OSPAPages <= 0 || cfg.RegionPages <= 0 {
		panic("dmc: invalid config")
	}
	hot := lcp.Config{
		OSPAPages:          cfg.OSPAPages,
		MachineBytes:       cfg.MachineBytes,
		Codec:              cfg.HotCodec,
		Bins:               cfg.Bins,
		MetadataCache:      cfg.MetadataCache,
		DecompressLatency:  cfg.DecompressLatency,
		MetadataHitLatency: cfg.MetadataHitLatency,
		OnMemoryPressure:   cfg.OnMemoryPressure,
	}
	nRegions := (cfg.OSPAPages + cfg.RegionPages - 1) / cfg.RegionPages
	blocks, _ := source.(memctl.LZBlockSizer)
	return &Controller{
		Controller: lcp.NewNamed(cfg.Label, hot, mem, source),
		cfg:        cfg,
		source:     source,
		blocks:     blocks,
		tiers:      make([]tier, cfg.OSPAPages),
		regionHits: make([]uint64, nRegions),
	}
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

// storedBytes returns the bytes the page's current format occupies.
// ResetStats implements memctl.Controller: clears the hot tier's
// accounting and the mechanism-switch count.
func (c *Controller) ResetStats() {
	c.Controller.ResetStats()
	c.mechanismSwitches = 0
}

// RegisterMetrics exports the mechanism-switch count under the
// controller's label ("dmc.mechanism_switches", "mxt.…"; DESIGN.md §12
// stat obligations).
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	r.Counter(c.cfg.Label + ".mechanism_switches").Set(c.mechanismSwitches)
}

func (c *Controller) storedBytes(page uint64, p *lcp.Page) int {
	t := &c.tiers[page]
	if !t.cold {
		return p.Bytes()
	}
	total := 0
	for _, b := range t.blockBytes {
		total += b
	}
	return total
}
