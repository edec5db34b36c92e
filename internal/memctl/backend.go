package memctl

import (
	"fmt"
	"sort"

	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/metadata"
)

// machineSlackBytes is the slack added to every machine-memory sizing
// so cycle-based runs are never capacity constrained (capacity effects
// are evaluated by internal/capacity, per the paper's dual
// methodology).
const machineSlackBytes = 1 << 20

// BaselineMachineBytes sizes machine memory for a backend that stores
// pages verbatim and carries no per-page metadata (the uncompressed
// baseline, CRAM's in-place packing, the CXL tiers).
func BaselineMachineBytes(ospaPages int) int64 {
	return int64(ospaPages)*PageSize + machineSlackBytes
}

// CompressedMachineBytes sizes machine memory for a backend that
// stores one packed metadata entry per OSPA page alongside the data
// (LCP, Compresso, DMC/MXT).
func CompressedMachineBytes(ospaPages int) int64 {
	return BaselineMachineBytes(ospaPages) + int64(ospaPages)*metadata.EntrySize
}

// BuildParams carries everything a registered backend needs to
// construct its controller for one run. The simulator fills it in;
// backends must treat it as read-only.
type BuildParams struct {
	// OSPAPages is the installed OSPA footprint in pages.
	OSPAPages int

	// MachineBytes is the machine-memory budget, precomputed from the
	// backend's own MachineBytes sizing function.
	MachineBytes int64

	// FootprintScale is the metadata-cache divisor: backends with a
	// metadata cache shrink it via metadata.ScaleCacheForFootprint so
	// it does not cover the whole scaled footprint. It is the run's
	// footprint divisor on one core; a simulated multi-core machine
	// gets half of it above 2, since its one cache covers every core's
	// pages (sim's machine geometry).
	FootprintScale int

	// Mem is the (near) DRAM the controller issues accesses through.
	Mem *dram.Memory

	// Source is the authoritative OSPA line oracle.
	Source LineSource

	// Injector is the run's fault injector (never nil; a disabled
	// injector is a complete no-op). Backends with injection sites wire
	// it into their config; others ignore it.
	Injector *faults.Injector

	// Overlap requests the opt-in overlapped-controller timing model:
	// backends that model a decompression latency may pipeline it
	// against DRAM service (Stats.Overlap* counters). Backends without
	// such a latency ignore it; off (the default) preserves the serial
	// timing model bit-for-bit.
	Overlap bool

	// Mod is the backend-specific config modifier routed from
	// sim.Config (nil when none). A backend that accepts one documents
	// its expected function type and panics on a mismatch — a silently
	// dropped ablation hook is worse than a crash. Only compresso takes
	// one (func(*core.Config)); the others ignore it.
	Mod any
}

// Backend is one registered memory-controller architecture: a name the
// CLI/experiments resolve, a machine-memory sizing rule, and a
// constructor. Registering a backend drops it into every fig-style
// sweep, the conformance/fuzz/audit harnesses and the JSON artifact
// pipeline for free (DESIGN.md §12).
type Backend struct {
	// Name is the canonical identifier ("compresso", "cram", ...);
	// it must match what the constructed controller's Name() returns.
	Name string

	// Desc is the one-line description shown by `compresso-sim -systems`.
	Desc string

	// MachineBytes sizes the machine memory for a run over ospaPages.
	// Sizing lives here — not in the simulator — because only the
	// backend knows whether it pays a per-page metadata charge.
	MachineBytes func(ospaPages int) int64

	// New constructs the backend's controller for one run.
	New func(p BuildParams) Controller
}

var backendRegistry = map[string]Backend{}

// RegisterBackend adds a backend to the registry. It panics on a
// duplicate or incomplete registration (a program-init bug).
func RegisterBackend(b Backend) {
	if b.Name == "" || b.MachineBytes == nil || b.New == nil {
		panic(fmt.Sprintf("memctl: incomplete backend registration %+v", b))
	}
	if _, dup := backendRegistry[b.Name]; dup {
		panic("memctl: duplicate backend " + b.Name)
	}
	backendRegistry[b.Name] = b
}

// LookupBackend resolves a registered backend by name.
func LookupBackend(name string) (Backend, bool) {
	b, ok := backendRegistry[name]
	return b, ok
}

// Backends returns every registered backend sorted by name.
func Backends() []Backend {
	out := make([]Backend, 0, len(backendRegistry))
	for _, b := range backendRegistry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BackendNames returns the sorted registered backend names.
func BackendNames() []string {
	names := make([]string, 0, len(backendRegistry))
	for n := range backendRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterBackend(Backend{
		Name:         "uncompressed",
		Desc:         "baseline: OSPA == MPA, one DRAM access per demand op, no metadata",
		MachineBytes: BaselineMachineBytes,
		New: func(p BuildParams) Controller {
			return NewUncompressed(p.Mem)
		},
	})
}
