// Package sim is the full-system cycle simulation harness: it wires a
// workload trace, the cache hierarchy, a memory controller resolved
// from the memctl backend registry and the DRAM model into the
// single- and multi-core experiments of the paper's cycle-based
// evaluation (Tab. III configuration, Tab. IV mixes).
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"compresso/internal/audit"
	"compresso/internal/cache"
	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/cpu"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/parallel"
	"compresso/internal/workload"

	// Registered backends without direct config plumbing in this
	// package: importing them is what makes their names resolvable
	// (DESIGN.md §12). core registers too, via the import above.
	_ "compresso/internal/cram"
	_ "compresso/internal/cxl"
	_ "compresso/internal/dmc"
	_ "compresso/internal/lcp"
)

// System names the memory architecture under test: any backend name
// registered with memctl.RegisterBackend resolves.
type System string

// The evaluated systems (§VI-F) plus the related-work and
// bandwidth-first backends.
const (
	Uncompressed System = "uncompressed"
	LCP          System = "lcp"
	LCPAlign     System = "lcp-align"
	Compresso    System = "compresso"
	// DMC is the related-work dual-compression baseline (§VIII); it is
	// not part of the paper's headline comparison set (Systems) but is
	// available for the related-dmc experiment.
	DMC System = "dmc"
	// MXT is the IBM-MXT-style all-coarse-granularity baseline (§VIII).
	MXT System = "mxt"
	// CRAM is the bandwidth-enhancement backend (internal/cram).
	CRAM System = "cram"
	// CXL is the expander-tier backend (internal/cxl).
	CXL System = "cxl"
)

// String returns the system's name.
func (s System) String() string { return string(s) }

// Systems lists the paper's four evaluated systems in order.
func Systems() []System { return []System{Uncompressed, LCP, LCPAlign, Compresso} }

// ExtendedSystems adds the related-work DMC and MXT baselines.
func ExtendedSystems() []System { return append(Systems(), DMC, MXT) }

// AllSystems lists every registered backend in name order — the set
// the backend-parameterized experiments sweep, which grows as new
// backends register.
func AllSystems() []System {
	names := memctl.BackendNames()
	out := make([]System, len(names))
	for i, n := range names {
		out[i] = System(n)
	}
	return out
}

// Config parameterizes one simulation run.
type Config struct {
	System System

	// Ops is the number of trace operations per core (the analogue of
	// a 200M-instruction CompressPoint; scale to taste).
	Ops uint64

	// WarmupFrac of Ops run before statistics are reset.
	WarmupFrac float64

	// Seed drives all randomness.
	Seed uint64

	// FootprintScale divides every benchmark's footprint (speed knob
	// for tests; 1 for experiments).
	FootprintScale int

	CPU  cpu.Config
	DRAM dram.Config

	// CompressoMod tweaks the compresso controller's config (ablations);
	// other systems ignore it.
	CompressoMod func(*core.Config)

	// Inject configures deterministic fault injection (internal/faults).
	// The zero value injects nothing and leaves the run bit-identical to
	// an injector-free build. Controller-level sites currently apply to
	// the Compresso system only; other systems just tally DRAM exposure.
	Inject faults.Config

	// AuditEvery runs a repairing structural state audit every N demand
	// operations on controllers that support it (0 disables auditing).
	AuditEvery uint64

	// TraceEvents bounds the run's controller-event ring buffer (0
	// disables tracing; the last N events survive in Result.Trace).
	TraceEvents int

	// SampleEvery snapshots the live metrics registry every N demand
	// operations into the result's windowed time series (0 disables
	// sampling). Sampling is determinism-neutral: it only reads stats
	// through snapshot copies and never touches RNG or stat semantics,
	// so artifacts are byte-identical with sampling on or off
	// (DESIGN.md §9).
	SampleEvery uint64

	// SampleWindows bounds the sampler's window ring (<= 0 uses
	// DefaultSampleWindows).
	SampleWindows int

	// OnSample, when non-nil, receives each sample's cycle and
	// cumulative registry snapshot as the run loop takes it — the live
	// introspection hook (-serve). Called synchronously from the run
	// loop with a copy; implementations must not mutate simulator
	// state and must not assume any timing.
	OnSample func(cycle uint64, snap obs.Snapshot)

	// Overlap enables the overlapped-controller timing model on
	// backends that support it (currently compresso): decompression
	// latency is pipelined against DRAM service instead of charged
	// serially after it, with the hidden/exposed split reported in the
	// memctl.* overlap stats. Off (the default) preserves the serial
	// model and byte-identical committed artifacts.
	Overlap bool

	// Attribution enables the cycle-accounting attribution ledger
	// (obs.Attribution, DESIGN.md §14): every demand access decomposes
	// its charged latency into typed components with a per-access
	// conservation check, plus a bounded hot-page overhead profile.
	// Off (the default) keeps the nil-ledger fast path; committed
	// artifacts are byte-identical either way (Result.Attribution is
	// excluded from JSON like Series/BackendMetrics).
	Attribution bool

	// TopPages bounds the attribution hot-page profile (<= 0 uses
	// DefaultTopPages).
	TopPages int

	// Assets, when non-nil, supplies pre-materialized workload images
	// with warm per-line size memos and recorded op streams
	// (PrepareAssets). A run replays the recording over a read-only
	// overlay of the masters, so the page-generation and install-sizing
	// work is shared across the several systems of a comparison run.
	// Must have been prepared for this config's profiles,
	// FootprintScale, Seed and Ops (a run of another shape panics);
	// runs are byte-identical with or without it.
	Assets *MixAssets

	// Cancel, when non-nil, aborts the run cooperatively: the demand
	// loop checks it every cancelCheckPeriod ops and unwinds with a
	// panic whose value is an error wrapping the context's error, so a
	// canceled or deadline-exceeded in-flight cell stops burning CPU
	// instead of running to completion. The resilient grid runner
	// recovers that sentinel and classifies it as a cancellation, not a
	// defect (DESIGN.md §11). An aborted run produces no Result.
	Cancel context.Context
}

// cancelCheckPeriod is how many demand ops pass between Config.Cancel
// checks — rare enough to stay invisible on the hot path, frequent
// enough that cancellation lands within microseconds.
const cancelCheckPeriod = 1024

// canceledError is the cooperative-abort sentinel thrown by the run
// loop; it unwraps to the context's error (context.Canceled or
// context.DeadlineExceeded) so recovery sites can classify it.
type canceledError struct{ err error }

func (e canceledError) Error() string { return "sim: run canceled: " + e.err.Error() }
func (e canceledError) Unwrap() error { return e.err }

// checkCancel aborts the run when its Config.Cancel context has fired
// (called with the loop's op counter to amortize the context poll).
func checkCancel(cancel context.Context, ops uint64) {
	if cancel != nil && ops%cancelCheckPeriod == 0 {
		if err := cancel.Err(); err != nil {
			panic(canceledError{err: err})
		}
	}
}

// DefaultSampleWindows is the sampler ring bound when
// Config.SampleWindows is unset.
const DefaultSampleWindows = 512

// DefaultTopPages is the attribution hot-page profile bound when
// Config.TopPages is unset.
const DefaultTopPages = 32

// DefaultConfig returns the paper's Tab. III setup for the given
// system.
func DefaultConfig(sys System) Config {
	return Config{
		System:         sys,
		Ops:            400_000,
		WarmupFrac:     0.1,
		Seed:           42,
		FootprintScale: 1,
		CPU:            cpu.DefaultConfig(),
		DRAM:           dram.DDR4_2666(),
	}
}

// Result captures one run's outcome.
type Result struct {
	Bench  string
	System string

	Cycles uint64
	Instrs uint64
	IPC    float64

	// CPU is the core's full counter set (Cycles/Instrs/IPC above are
	// kept as headline fields for the experiment tables).
	CPU cpu.Stats

	Mem     memctl.Stats
	Dram    dram.Stats
	MDCache metadata.CacheStats
	L3      cache.Stats

	// Ratio is the end-of-run compression ratio (1 for uncompressed).
	Ratio float64

	L3MissRate float64

	// Faults and Audit summarize the robustness machinery's activity
	// (zero values when injection/auditing were off).
	Faults faults.Totals
	Audit  audit.Outcome

	// PageSizes is the end-of-run compressed page-size distribution in
	// 512 B chunks (zero Total for controllers without variable page
	// sizes).
	PageSizes obs.HistSnapshot

	// Trace holds the run's controller-event ring-buffer contents
	// (empty unless Config.TraceEvents > 0).
	Trace obs.Trace

	// Series is the sampled per-window metric timeline (empty unless
	// Config.SampleEvery > 0). Excluded from JSON so artifacts stay
	// byte-identical with sampling on or off (DESIGN.md §9); it is
	// served live via -serve and readable programmatically.
	Series obs.Series `json:"-"`

	// BackendMetrics holds the backend's own per-prefix counters (e.g.
	// "cram.*", "cxl.link.*") for backends that export them; merged
	// into Registry() so they reach /metrics and artifact metric
	// sections. Excluded from the Result JSON itself so the committed
	// BENCH_* result payloads of metric-free backends stay
	// byte-identical.
	BackendMetrics obs.Snapshot `json:"-"`

	// Attribution is the run's cycle-accounting snapshot (empty-shaped
	// unless Config.Attribution). Excluded from JSON so committed
	// artifacts stay byte-identical with attribution on or off.
	Attribution obs.AttributionSnapshot `json:"-"`
}

// Registry builds the run's metrics registry: every stat struct
// registered under its DESIGN.md §8 prefix plus run-level gauges.
func (r Result) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	r.CPU.Register(reg, "cpu")
	r.Mem.Register(reg, "memctl")
	r.Dram.Register(reg, "dram")
	r.MDCache.Register(reg, "mdcache")
	r.L3.Register(reg, "cache.l3")
	r.Faults.Register(reg, "faults")
	r.Audit.Register(reg, "audit")
	reg.Gauge("run.ratio").Set(r.Ratio)
	if acc := r.L3.Accesses(); acc > 0 {
		reg.Gauge("run.l3_miss_rate").Set(r.L3MissRate)
	}
	if r.PageSizes.Total > 0 {
		reg.Histogram("memctl.page_size_chunks").AddSnapshot(r.PageSizes)
	}
	mergeSnapshot(reg, r.BackendMetrics)
	if r.Attribution.Accesses > 0 {
		mergeSnapshot(reg, r.Attribution.Metrics())
	}
	return reg
}

// mdStatser is implemented by the compressed controllers.
type mdStatser interface {
	MetadataCacheStats() metadata.CacheStats
}

// backendMetricser is implemented by controllers that export
// backend-specific counters beyond the shared memctl.Stats (DESIGN.md
// §12): the registration must be read-only and deterministic.
type backendMetricser interface {
	RegisterMetrics(r *obs.Registry)
}

// backendMetrics snapshots a controller's own metric registrations
// (zero snapshot for controllers without any).
func backendMetrics(ctl memctl.Controller) obs.Snapshot {
	bm, ok := ctl.(backendMetricser)
	if !ok {
		return obs.Snapshot{}
	}
	reg := obs.NewRegistry()
	bm.RegisterMetrics(reg)
	return reg.Snapshot()
}

// mergeSnapshot registers a snapshot's series into reg.
func mergeSnapshot(reg *obs.Registry, s obs.Snapshot) {
	for name, v := range s.Counters {
		reg.Counter(name).Set(v)
	}
	for name, v := range s.Gauges {
		reg.Gauge(name).Set(v)
	}
	for name, h := range s.Hists {
		reg.Histogram(name).AddSnapshot(h)
	}
}

// routedSource maps global OSPA line addresses to per-core images.
type routedSource struct {
	basePages []uint64
	images    []*workload.Image
}

// route returns the image owning a global line address and the line's
// index within that image.
func (r *routedSource) route(lineAddr uint64) (*workload.Image, uint64) {
	page := lineAddr / memctl.LinesPerPage
	for i := len(r.basePages) - 1; i >= 0; i-- {
		if page >= r.basePages[i] {
			return r.images[i], lineAddr - r.basePages[i]*memctl.LinesPerPage
		}
	}
	panic(fmt.Sprintf("sim: line %d outside every core's range", lineAddr))
}

func (r *routedSource) ReadLine(lineAddr uint64, buf []byte) {
	img, local := r.route(lineAddr)
	img.ReadLine(local, buf)
}

// Line implements memctl.LineViewer by routing to the owning image's
// live line.
func (r *routedSource) Line(lineAddr uint64) []byte {
	img, local := r.route(lineAddr)
	return img.Line(local)
}

// SizeLine implements memctl.LineSizer by routing to the owning
// image's per-line size memo.
func (r *routedSource) SizeLine(codec compress.Codec, lineAddr uint64) int {
	img, local := r.route(lineAddr)
	return img.SizeLine(codec, local)
}

// SizeLZBlock implements memctl.LZBlockSizer by routing to the owning
// image's block sizes. Images start on page boundaries, so a block
// never straddles two.
func (r *routedSource) SizeLZBlock(firstLine uint64) int {
	img, local := r.route(firstLine)
	return img.SizeLZBlock(local)
}

// MixAssets is the shareable, immutable-by-convention part of a run's
// workload state: fully materialized master images with warm per-line
// size memos, one per core. Prepare once with PrepareAssets, then run
// several systems over overlays or clones of the masters
// (Config.Assets) — the page generation and initial sizing work is
// paid once instead of per system. The masters themselves are never
// written.
type MixAssets struct {
	seed   uint64
	ops    uint64
	profs  []workload.Profile // post-scaling profiles
	images []*workload.Image
	logs   []*workload.TraceLog
}

// PrepareAssets materializes and sizes master images for the given
// profiles under cfg's FootprintScale and Seed (the same derivation
// RunSingle/RunMix use), fanning the page scans across jobs workers.
// For RunMix pass every profile of the mix in order; for RunSingle a
// single-element slice. The memo is warmed for codec (pass the codec
// the compressed systems size with, compress.BPC{} for the defaults);
// systems using another codec simply bypass the memo.
//
// Each core's op stream is also recorded once, over a throwaway clone
// that each worker reuses for its cores one after another (a fresh
// clone per core left image-sized garbage whose collection, and with it
// the process's peak RSS, varied with GC timing). Runs with these
// assets replay the log instead of regenerating the trace, and the
// log's shared store-size slots let the several systems of a
// comparison run share the recompression of stored lines — the sizes
// are content-determined, so replays are byte-identical to generation.
// The cache-filter logs are not built here: they are the process's
// (filter.go), recorded by the first run of each op stream.
func PrepareAssets(profs []workload.Profile, cfg Config, codec compress.Codec, jobs int) *MixAssets {
	a := &MixAssets{seed: cfg.Seed, ops: cfg.Ops}
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		img := workload.NewImage(p, workload.CoreSeed(cfg.Seed, i))
		img.Materialize(jobs)
		img.SizeAll(codec, jobs)
		a.profs = append(a.profs, p)
		a.images = append(a.images, img)
	}
	a.logs = make([]*workload.TraceLog, len(a.profs))
	workers := parallel.Workers(jobs, len(a.profs))
	parallel.Map(workers, workers, func(w int) struct{} {
		var scratch *workload.Image
		for i := w; i < len(a.profs); i += workers {
			scratch = a.images[i].CloneInto(scratch)
			a.logs[i] = workload.RecordTrace(scratch, a.profs[i],
				workload.CoreSeed(cfg.Seed, i), cfg.Ops, codec)
		}
		return struct{}{}
	})
	return a
}

// stream returns core i's op source: a replay of its recording over
// an overlay of the shared master (no page bytes are copied).
func (a *MixAssets) stream(i int, prof workload.Profile, seed, ops uint64) workload.OpStream {
	a.check(i, prof, seed, ops)
	return a.logs[i].ReplayOver(a.images[i])
}

// check validates that the assets were prepared for this run's shape:
// the whole post-scaling profile (rendered with %#v, the identity the
// workload size table and the experiments' run memo use), the seed
// and the op count the recording holds.
func (a *MixAssets) check(i int, prof workload.Profile, seed, ops uint64) {
	if i >= len(a.images) || workload.CoreSeed(a.seed, i) != seed || a.ops != ops ||
		fmt.Sprintf("%#v", a.profs[i]) != fmt.Sprintf("%#v", prof) {
		panic(fmt.Sprintf("sim: Assets prepared for different run shape (core %d, profile %s)", i, prof.Name))
	}
}

// scaledL3Bytes shrinks the L3 with the footprint so a fixed cache
// cannot cover the whole scaled footprint and hide memory pressure
// (the metadata-cache analogue lives in
// metadata.ScaleCacheForFootprint, applied by each backend).
func scaledL3Bytes(perCore, scale int) int {
	size := perCore / scale
	const min = 128 << 10
	if size < min {
		return min
	}
	// Keep a power-of-two set count.
	p := min
	for p*2 <= size {
		p *= 2
	}
	return p
}

// backendMod is the config modifier handed to the run's backend:
// compresso gets CompressoMod, every other backend none. An unset
// CompressoMod stays an untyped nil — a nil func stored in an any is
// non-nil, and the backend would call it.
func (c Config) backendMod() any {
	if c.System == Compresso && c.CompressoMod != nil {
		return c.CompressoMod
	}
	return nil
}

// buildController resolves the system's registered backend and
// constructs its controller for the given OSPA page count, together
// with the run's fault injector (a no-op when cfg.Inject is zero).
// Machine memory is sized by the backend's own rule so the cycle-based
// runs are never capacity constrained (capacity effects are evaluated
// by internal/capacity, per the paper's dual methodology) and
// metadata-free backends are not charged for metadata they don't keep.
func buildController(cfg Config, ospaPages int, mem *dram.Memory, src memctl.LineSource) (memctl.Controller, *faults.Injector) {
	b, ok := memctl.LookupBackend(string(cfg.System))
	if !ok {
		panic(fmt.Sprintf("sim: unknown system %q (registered: %v)", cfg.System, memctl.BackendNames()))
	}
	inj := faults.New(cfg.Inject)
	if inj.Enabled() {
		mem.SetOnAccess(inj.NoteDRAM)
	}
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      ospaPages,
		MachineBytes:   b.MachineBytes(ospaPages),
		FootprintScale: cfg.FootprintScale,
		Mem:            mem,
		Source:         src,
		Injector:       inj,
		Overlap:        cfg.Overlap,
		Mod:            cfg.backendMod(),
	})
	return ctl, inj
}

// newAuditor builds the run's audit runner, or nil when auditing is
// off or the controller cannot audit itself.
func newAuditor(cfg Config, ctl memctl.Controller) *audit.Runner {
	if cfg.AuditEvery == 0 {
		return nil
	}
	a, ok := ctl.(audit.Auditable)
	if !ok {
		return nil
	}
	return audit.NewRunner(a, cfg.AuditEvery)
}

// machine is the simulated system of one run: n cores with private
// L1/L2 over a shared L3, one memory controller and its DRAM, and the
// run's observers. RunSingle is its one-core case and RunMix the
// general one; they differ only in how they report its state.
type machine struct {
	cfg     Config
	profs   []workload.Profile // each core's scaled profile
	streams []workload.OpStream
	base    []uint64 // first OSPA page of each core's image
	l3Bytes int
	filters *filterTables // the cache-filter logs the run may replay
	mem     *dram.Memory
	ctl     memctl.Controller
	inj     *faults.Injector
	l3      *cache.Cache
	hiers   []*cache.Hierarchy
	cores   []*cpu.Core
	auditor *audit.Runner
	tracer  *obs.Tracer
	attr    *obs.Attribution
	sampler *obs.Sampler
}

// newMachine provisions the machine for one core per profile. Core i
// runs its scaled profile under seed workload.CoreSeed(Seed, i), its
// image placed in the OSPA after core i-1's. One core gets the Tab. III
// system: one DRAM channel and a 2 MB L3, both scaled with the
// footprint. Several cores get the Xeon-class provisioning the paper's
// 4-core results imply: a second channel, 2 MB of shared L3 per core
// (8 MB for four), and a metadata cache and L3 sized at half the
// footprint scale, since they cover n cores' pages.
func newMachine(profs []workload.Profile, cfg Config) *machine {
	n := len(profs)
	m := &machine{
		profs:   make([]workload.Profile, n),
		streams: make([]workload.OpStream, n),
		base:    make([]uint64, n),
		filters: &processFilters,
		hiers:   make([]*cache.Hierarchy, n),
		cores:   make([]*cpu.Core, n),
	}
	images := make([]*workload.Image, n)
	var pages uint64
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		seed := workload.CoreSeed(cfg.Seed, i)
		if cfg.Assets != nil {
			m.streams[i] = cfg.Assets.stream(i, p, seed, cfg.Ops)
		} else {
			m.streams[i] = workload.NewTrace(p, seed, cfg.Ops)
		}
		m.profs[i] = p
		images[i] = m.streams[i].Image()
		m.base[i] = pages
		pages += uint64(p.FootprintPages)
	}
	dcfg := cfg.DRAM
	if n > 1 {
		if dcfg.Channels == 1 {
			dcfg.Channels = 2
		}
		if cfg.FootprintScale > 2 {
			cfg.FootprintScale /= 2
		}
	}
	m.cfg = cfg
	m.mem = dram.New(dcfg)
	src := &routedSource{basePages: m.base, images: images}
	m.ctl, m.inj = buildController(cfg, int(pages), m.mem, src)
	for i, img := range images {
		img.InstallIntoAt(m.ctl, m.base[i])
	}
	m.auditor = newAuditor(cfg, m.ctl)
	m.tracer = attachTracer(cfg, m.ctl)
	m.attr = attachAttribution(cfg, m.ctl)

	m.l3Bytes = scaledL3Bytes(2<<20*n, cfg.FootprintScale)
	m.l3 = cache.New("l3", m.l3Bytes, 16)
	for i := range m.cores {
		m.hiers[i] = cache.NewHierarchy(m.l3)
		m.cores[i] = cpu.New(cfg.CPU, m.hiers[i], m.ctl, src)
	}
	m.sampler = newRunSampler(cfg)
	return m
}

// run steps every core through Ops trace operations and drains them.
// Each step advances the core with the smallest local clock, so the
// cores contend continuously (the syncedFastForward analogue: everyone
// starts at its region). Statistics reset once every core has finished
// its warmup share; snapshot renders the state the sampler records.
func (m *machine) run(snapshot func() obs.Snapshot) {
	cfg := m.cfg
	completed := false
	if release := m.filterCaches(); release != nil {
		defer func() { release(completed) }()
	}
	sample := func() {
		now, snap := m.now(), snapshot()
		m.sampler.Sample(now, snap)
		if cfg.OnSample != nil {
			cfg.OnSample(now, snap)
		}
	}
	warm := uint64(float64(cfg.Ops) * cfg.WarmupFrac)
	warmed := warm == 0 // no warmup: the statistics cover the whole run
	done := make([]uint64, len(m.cores))
	var steps uint64 // ops across all cores (the sampling clock)
	var op workload.Op
	for {
		sel := -1
		for i, c := range m.cores {
			if done[i] < cfg.Ops && (sel == -1 || c.Now() < m.cores[sel].Now()) {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		checkCancel(cfg.Cancel, steps)
		m.streams[sel].Next(&op)
		op.LineAddr += m.base[sel] * memctl.LinesPerPage
		c := m.cores[sel]
		c.Step(&op)
		if m.auditor != nil {
			if rep := m.auditor.Tick(); rep != nil {
				m.tracer.Emit(c.Now(), obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
			}
		}
		done[sel]++
		steps++
		if cfg.SampleEvery > 0 && steps%cfg.SampleEvery == 0 {
			sample()
		}
		// Only the core that just ran its last warmup op can be the one
		// completing the set.
		if !warmed && done[sel] == warm && slices.Min(done) >= warm {
			m.resetStats()
			warmed = true
		}
	}
	completed = true
	for _, c := range m.cores {
		c.Drain()
	}
	if cfg.SampleEvery > 0 {
		sample() // close the partial final window at the drained clocks
	}
}

// resetStats marks the warmup boundary: all counters restart, and the
// DRAM model additionally drops its in-flight bus/bank timing so the
// first measured accesses aren't charged wait cycles for warmup
// traffic the stats no longer count (row buffers and cache contents
// stay warm).
func (m *machine) resetStats() {
	m.ctl.ResetStats()
	m.mem.ResetStats()
	m.mem.ResetTiming()
	for i := range m.cores {
		m.hiers[i].ResetStats()
		m.cores[i].ResetStats()
	}
	m.attr.Reset()
}

// now is the machine's clock: the latest core-local cycle.
func (m *machine) now() uint64 {
	var now uint64
	for _, c := range m.cores {
		now = max(now, c.Now())
	}
	return now
}

// state packages the machine's current counters: each core's CPU
// result over the shared memory system. The page-size histogram and
// the observers' output are left to the caller.
func (m *machine) state() MultiResult {
	out := MultiResult{
		System:         m.cfg.System.String(),
		Mem:            m.ctl.Stats(),
		Dram:           m.mem.Stats(),
		Ratio:          memctl.CompressionRatio(m.ctl),
		BackendMetrics: backendMetrics(m.ctl),
	}
	if ms, ok := m.ctl.(mdStatser); ok {
		out.MDCache = ms.MetadataCacheStats()
	}
	for i, c := range m.cores {
		s := c.Stats()
		out.Cores = append(out.Cores, Result{
			Bench:  m.profs[i].Name,
			System: out.System,
			Cycles: s.Cycles,
			Instrs: s.Instrs,
			IPC:    s.IPC(),
			CPU:    s,
		})
	}
	return out
}

// finish packages the end of a run: the drained state with its page
// sizes and time series, then the final structural audit, then the
// fault, trace and attribution observers. Only Mem, Dram and
// BackendMetrics are re-read after the audit, whose repair pass
// touches the controller tallies and real DRAM traffic.
func (m *machine) finish() MultiResult {
	out := m.state()
	out.PageSizes = pageSizes(m.ctl)
	out.Series = m.sampler.Series()
	if m.auditor != nil {
		rep := m.auditor.Final(audit.Structural)
		m.tracer.Emit(m.now(), obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
		out.Audit = m.auditor.Outcome()
		out.Mem = m.ctl.Stats()
		out.Dram = m.mem.Stats()
		out.BackendMetrics = backendMetrics(m.ctl)
	}
	out.Faults = m.inj.Totals()
	out.Trace = m.tracer.Trace()
	if m.attr != nil {
		out.Attribution = m.attr.Snapshot()
	}
	return out
}

// soloResult reports a one-core run as a Result: the core's counters
// over the memory system it had to itself, plus its L3.
func soloResult(m MultiResult, l3 cache.Stats) Result {
	r := m.Cores[0]
	r.Mem, r.Dram, r.MDCache, r.Ratio = m.Mem, m.Dram, m.MDCache, m.Ratio
	r.L3, r.L3MissRate = l3, l3.MissRate()
	r.Faults, r.Audit, r.PageSizes, r.Trace = m.Faults, m.Audit, m.PageSizes, m.Trace
	r.Series, r.BackendMetrics, r.Attribution = m.Series, m.BackendMetrics, m.Attribution
	return r
}

// RunSingle simulates one benchmark on a single-core system: exactly
// a one-core RunMix, reported as a Result.
func RunSingle(prof workload.Profile, cfg Config) Result {
	return newMachine([]workload.Profile{prof}, cfg).runSolo()
}

// runSolo runs a one-core machine and reports it as a Result.
func (m *machine) runSolo() Result {
	m.run(func() obs.Snapshot {
		mr := m.state()
		mr.PageSizes = pageSizes(m.ctl)
		return soloResult(mr, m.l3.Stats()).Registry().Snapshot()
	})
	l3 := m.l3.Stats()
	return soloResult(m.finish(), l3)
}

// newRunSampler builds the run's windowed time-series sampler from
// SampleEvery/SampleWindows (nil — all methods no-ops — when sampling
// is off).
func newRunSampler(cfg Config) *obs.Sampler {
	windows := cfg.SampleWindows
	if windows <= 0 {
		windows = DefaultSampleWindows
	}
	return obs.NewSampler(cfg.SampleEvery, windows)
}

// pageSizeHister is implemented by controllers that can enumerate
// their compressed page sizes (core.Controller).
type pageSizeHister interface {
	PageSizeHistogramAdd(add func(chunks int))
}

// pageSizes snapshots the controller's compressed page-size
// distribution (zero snapshot when the controller has none).
func pageSizes(ctl memctl.Controller) obs.HistSnapshot {
	ph, ok := ctl.(pageSizeHister)
	if !ok {
		return obs.HistSnapshot{}
	}
	var h obs.Histogram
	ph.PageSizeHistogramAdd(func(chunks int) { h.Observe(chunks) })
	return h.Snapshot()
}

// attachTracer builds the run's event tracer and installs it on
// controllers that support tracing. A zero TraceEvents yields a nil
// tracer, whose methods are all no-ops.
func attachTracer(cfg Config, ctl memctl.Controller) *obs.Tracer {
	tracer := obs.NewTracer(cfg.TraceEvents)
	if tracer == nil {
		return nil
	}
	if ts, ok := ctl.(interface{ SetTracer(*obs.Tracer) }); ok {
		ts.SetTracer(tracer)
	}
	return tracer
}

// attachAttribution builds the run's cycle-accounting ledger and
// installs it on controllers that support attribution (every
// registered backend does). Returns nil — all methods no-ops — when
// attribution is off, mirroring attachTracer.
func attachAttribution(cfg Config, ctl memctl.Controller) *obs.Attribution {
	if !cfg.Attribution {
		return nil
	}
	as, ok := ctl.(interface{ SetAttribution(*obs.Attribution) })
	if !ok {
		return nil
	}
	top := cfg.TopPages
	if top <= 0 {
		top = DefaultTopPages
	}
	attr := obs.NewAttribution(top)
	as.SetAttribution(attr)
	return attr
}

// MultiResult is a 4-core run's outcome: per-core results plus the
// shared memory-system stats.
type MultiResult struct {
	MixName string
	System  string
	Cores   []Result
	Mem     memctl.Stats
	Dram    dram.Stats
	MDCache metadata.CacheStats
	Ratio   float64

	// Faults and Audit summarize the robustness machinery's activity
	// (zero values when injection/auditing were off).
	Faults faults.Totals
	Audit  audit.Outcome

	// PageSizes is the end-of-run compressed page-size distribution in
	// 512 B chunks (zero Total for controllers without variable page
	// sizes).
	PageSizes obs.HistSnapshot

	// Trace holds the run's controller-event ring-buffer contents
	// (empty unless Config.TraceEvents > 0).
	Trace obs.Trace

	// Series is the sampled per-window metric timeline (empty unless
	// Config.SampleEvery > 0). Excluded from JSON so artifacts stay
	// byte-identical with sampling on or off (DESIGN.md §9).
	Series obs.Series `json:"-"`

	// BackendMetrics holds the backend's own per-prefix counters (see
	// Result.BackendMetrics).
	BackendMetrics obs.Snapshot `json:"-"`

	// Attribution is the run's cycle-accounting snapshot (see
	// Result.Attribution); one shared controller means one ledger.
	Attribution obs.AttributionSnapshot `json:"-"`
}

// Registry builds the mix run's metrics registry: the shared memory
// system under the canonical prefixes plus per-core CPU counters under
// "coreN.cpu".
func (m MultiResult) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	m.Mem.Register(reg, "memctl")
	m.Dram.Register(reg, "dram")
	m.MDCache.Register(reg, "mdcache")
	m.Faults.Register(reg, "faults")
	m.Audit.Register(reg, "audit")
	reg.Gauge("run.ratio").Set(m.Ratio)
	if m.PageSizes.Total > 0 {
		reg.Histogram("memctl.page_size_chunks").AddSnapshot(m.PageSizes)
	}
	for i, c := range m.Cores {
		c.CPU.Register(reg, fmt.Sprintf("core%d.cpu", i))
	}
	mergeSnapshot(reg, m.BackendMetrics)
	if m.Attribution.Accesses > 0 {
		mergeSnapshot(reg, m.Attribution.Metrics())
	}
	return reg
}

// WeightedSpeedup computes the standard multi-core metric against a
// baseline run of the same mix: the mean of per-core IPC ratios. A
// baseline core with degenerate IPC (zero, NaN or Inf — a core that
// retired nothing) returns an error instead of letting Inf/NaN flow
// into downstream geomeans and panic mid-experiment. Comparing results
// with different core counts is a programming error and panics.
func (m MultiResult) WeightedSpeedup(base MultiResult) (float64, error) {
	if len(m.Cores) != len(base.Cores) {
		panic("sim: mismatched mix results")
	}
	total := 0.0
	for i := range m.Cores {
		b := base.Cores[i].IPC
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return 0, fmt.Errorf("sim: mix %s baseline core %d (%s) has degenerate IPC %v",
				base.MixName, i, base.Cores[i].Bench, b)
		}
		total += m.Cores[i].IPC / b
	}
	return total / float64(len(m.Cores)), nil
}

// RunMix simulates a multi-core mix, one core per profile, sharing the
// L3, controller and DRAM (see newMachine for the provisioning and
// machine.run for the interleave). Mix samples carry per-core
// "coreN.cpu" counters and no page-size histogram.
func RunMix(mixName string, profs []workload.Profile, cfg Config) MultiResult {
	if len(profs) == 0 {
		panic("sim: empty mix")
	}
	return newMachine(profs, cfg).runMix(mixName)
}

// runMix runs a machine and reports it as a MultiResult.
func (m *machine) runMix(mixName string) MultiResult {
	m.run(func() obs.Snapshot { return m.state().Registry().Snapshot() })
	out := m.finish()
	out.MixName = mixName
	return out
}
