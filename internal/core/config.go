// Package core implements the Compresso memory controller — the
// paper's primary contribution (§II–§V): OS-transparent OSPA→MPA
// translation with LinePack packing, incremental 512 B chunk
// allocation, an inflation room, and the five data-movement
// optimizations of §IV-B (alignment-friendly line bins, page-overflow
// prediction, dynamic inflation-room expansion, dynamic page
// repacking, and the metadata-cache half-entry optimization).
package core

import (
	"compresso/internal/compress"
	"compresso/internal/faults"
	"compresso/internal/metadata"
)

// Allocation selects the MPA allocation discipline (§II-D).
type Allocation int

const (
	// FixedChunks allocates pages incrementally in 512 B chunks
	// (Compresso's choice; up to 8 page sizes, chunks may be
	// discontiguous, dynamic IR expansion possible).
	FixedChunks Allocation = iota
	// VariableChunks allocates contiguous variable-sized blocks
	// (512 B/1 K/2 K/4 K) from a buddy allocator — the comparison
	// configuration in Fig. 4's right bars. Growing a page relocates
	// it, and the inflation room cannot be expanded.
	VariableChunks
)

// Config parameterizes a Compresso controller. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// OSPAPages is the page count advertised to the OS. The metadata
	// region consumes 64 B per OSPA page of machine memory (1.6%).
	OSPAPages int

	// MachineBytes is the installed physical memory, including the
	// metadata region.
	MachineBytes int64

	// Codec compresses cache lines (the paper's modified BPC).
	Codec compress.Codec

	// Bins quantizes compressed line sizes (§IV-B1). CompressoBins
	// (0/8/32/64) are alignment friendly; LegacyBins (0/22/44/64)
	// reproduce the unoptimized baseline.
	Bins compress.Bins

	// PageSizes lists the permissible page sizes in 512 B chunks,
	// ascending and ending at 8 (e.g. 1..8 for Compresso, {1,2,4,8}
	// for the 4-page-size ablation).
	PageSizes []int

	// Allocation picks fixed or variable chunk allocation.
	Allocation Allocation

	// Optimization toggles (§IV-B2..B5).
	PredictOverflows   bool
	DynamicIRExpansion bool
	DynamicRepacking   bool

	// MetadataCache configures the controller cache; its HalfEntry
	// field is optimization §IV-B5.
	MetadataCache metadata.CacheConfig

	// Latencies in core cycles (Tab. III). Writebacks are posted at
	// the access cycle, so the compressor's latency is off every
	// critical path and has no knob here (DESIGN.md §3.4).
	DecompressLatency  uint64 // 12
	MetadataHitLatency uint64 // 2

	// Overlap enables the overlapped-controller timing model: the
	// decompression pipeline starts as soon as the first beats of the
	// line arrive, so DecompressLatency is charged only to the extent
	// it exceeds the DRAM service window of the read (the cycles
	// between metadata resolution and data arrival). Off by default;
	// the serial model — full DecompressLatency after data arrival —
	// is the paper's Tab. III accounting and stays bit-identical.
	Overlap bool

	// PrefetchBuffer is the number of recently fetched machine lines
	// remembered to model the free-prefetch effect of compressed
	// lines sharing a 64 B burst (§VII-A). 0 disables it.
	PrefetchBuffer int

	// OnMemoryPressure, when set, is invoked when chunk allocation
	// fails; it should free machine memory (the §V-B ballooning path)
	// and report whether it did. Unset, allocation failure panics.
	OnMemoryPressure func(needChunks int) bool

	// Faults, when set, injects bit flips, allocator mistakes and
	// forced metadata misses into the controller (internal/faults).
	// Nil disables injection; the demand path is then unchanged.
	Faults *faults.Injector
}

// DefaultConfig returns the paper's Compresso configuration for a
// machine with the given installed bytes and an OSPA space of
// ospaPages 4 KB pages.
func DefaultConfig(ospaPages int, machineBytes int64) Config {
	return Config{
		OSPAPages:          ospaPages,
		MachineBytes:       machineBytes,
		Codec:              compress.BPC{},
		Bins:               compress.CompressoBins,
		PageSizes:          []int{1, 2, 3, 4, 5, 6, 7, 8},
		Allocation:         FixedChunks,
		PredictOverflows:   true,
		DynamicIRExpansion: true,
		DynamicRepacking:   true,
		MetadataCache:      metadata.DefaultCacheConfig(),
		DecompressLatency:  12,
		MetadataHitLatency: 2,
		PrefetchBuffer:     8,
	}
}

func (c *Config) validate() {
	if c.OSPAPages <= 0 {
		panic("core: OSPAPages must be positive")
	}
	if c.MachineBytes < int64(c.OSPAPages)*metadata.EntrySize {
		panic("core: machine memory smaller than metadata region")
	}
	if len(c.PageSizes) == 0 || c.PageSizes[len(c.PageSizes)-1] != metadata.MaxChunks {
		panic("core: PageSizes must end at 8 chunks")
	}
	prev := 0
	for _, s := range c.PageSizes {
		if s <= prev || s > metadata.MaxChunks {
			panic("core: PageSizes must be ascending in 1..8")
		}
		prev = s
	}
	if c.Codec == nil {
		panic("core: Codec required")
	}
	if c.Bins.Count() == 0 {
		panic("core: Bins required")
	}
}
