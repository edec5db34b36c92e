package main

import (
	"fmt"
	"slices"
	"time"

	"compresso/internal/cache"
	"compresso/internal/cpu"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// The composed run rebuilds sim.PrepareAssets, sim.RunSingle and
// sim.RunMix from the layers' public calls, so that every call into a
// layer can be timed from outside the simulator. It covers what the
// benchmark's workloads configure; fault injection, auditing, backend
// config modifiers and cancellation are not rebuilt. Its results must be
// byte-identical to the simulator's (seam_test.go pins that for every
// backend).

// composedAssets is sim.MixAssets rebuilt: materialized master images
// with warm size memos, and each core's recorded op stream.
type composedAssets struct {
	profs  []workload.Profile // scaled
	images []*workload.Image
	logs   []*workload.TraceLog
}

// prepareComposed mirrors sim.PrepareAssets with one job, timing the
// workload layer's set-up steps into g.
func prepareComposed(profs []workload.Profile, cfg sim.Config, g *ledger) *composedAssets {
	a := &composedAssets{}
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		img := workload.NewImage(p, cfg.Seed+uint64(i)*seedStride)
		t := time.Now()
		img.Materialize(1)
		g.materialize += time.Since(t)
		t = time.Now()
		img.SizeAll(sizeCodec, 1)
		g.sizeAll += time.Since(t)
		g.pages += p.FootprintPages
		g.lines += int(img.Lines())
		a.profs = append(a.profs, p)
		a.images = append(a.images, img)
	}
	for i, p := range a.profs {
		t := time.Now()
		a.logs = append(a.logs, workload.RecordTrace(a.images[i].Clone(), p, cfg.Seed+uint64(i)*seedStride, cfg.Ops, sizeCodec))
		g.record += time.Since(t)
		g.ops += int(cfg.Ops)
	}
	return a
}

// coreOp is one op as it entered a core's cache hierarchy.
type coreOp struct {
	line  uint64
	core  int32
	write bool
}

// dramOp is one DRAM access as the controller issued it.
type dramOp struct {
	line  uint64
	write bool
}

// seamLog holds the streams crossing the cache and DRAM boundaries of
// one composed run, and the run's own caches and DRAM to compare
// replays against.
type seamLog struct {
	ops       []coreOp
	opsReset  int // index of the first op after the warmup reset; -1 if none
	dram      []dramOp
	dramReset int // likewise for DRAM accesses
	hiers     []*cache.Hierarchy
	l3Bytes   int
	mem       *dram.Memory
	dcfg      dram.Config
}

// scaledL3Bytes mirrors the simulator's L3 sizing: the per-core L3
// divided by the footprint scale, at least 128 KiB, rounded down to a
// power of two.
func scaledL3Bytes(perCore, scale int) int {
	size := perCore / scale
	const least = 128 << 10
	if size < least {
		return least
	}
	p := least
	for p*2 <= size {
		p *= 2
	}
	return p
}

// runComposed rebuilds sim.RunSingle (mixName empty) or sim.RunMix with
// the controller and line source wrapped in g's timers.
func runComposed(mixName string, cfg sim.Config, a *composedAssets, g *ledger) (cellResult, *seamLog) {
	n := len(a.profs)
	mix := mixName != ""
	streams := make([]workload.OpStream, n)
	images := make([]*workload.Image, n)
	base := make([]uint64, n)
	var pages uint64
	for i := range a.profs {
		streams[i] = a.logs[i].ReplayOver(a.images[i])
		images[i] = streams[i].Image()
		base[i] = pages
		pages += uint64(a.profs[i].FootprintPages)
	}
	// RunMix provisions several cores with a second channel, and sizes
	// the shared metadata cache and L3 at half the footprint scale.
	dcfg, scale := cfg.DRAM, cfg.FootprintScale
	l3Bytes := scaledL3Bytes(2<<20, scale)
	if mix {
		if n > 1 && dcfg.Channels == 1 {
			dcfg.Channels = 2
		}
		if scale > 2 {
			scale /= 2
		}
		l3Bytes = scaledL3Bytes(2<<20*n, scale)
	}
	seam := &seamLog{ops: make([]coreOp, 0, cfg.Ops*uint64(n)), opsReset: -1, dramReset: -1, l3Bytes: l3Bytes, dcfg: dcfg}
	mem := dram.New(dcfg)
	mem.SetOnAccess(func(line uint64, write bool) { seam.dram = append(seam.dram, dramOp{line, write}) })
	seam.mem = mem

	b, ok := memctl.LookupBackend(string(cfg.System))
	if !ok {
		panic(fmt.Sprintf("unknown system %q", cfg.System))
	}
	src := &timedSource{base: base, images: images, g: g}
	inner := b.New(memctl.BuildParams{
		OSPAPages:      int(pages),
		MachineBytes:   b.MachineBytes(int(pages)),
		FootprintScale: scale,
		Mem:            mem,
		Source:         src,
		Overlap:        cfg.Overlap,
	})
	ctl := g.controller(string(cfg.System), inner)
	t0 := time.Now()
	for i := range images {
		images[i].InstallIntoAt(ctl, base[i])
	}
	tracer := obs.NewTracer(cfg.TraceEvents)
	if ts, ok := inner.(interface{ SetTracer(*obs.Tracer) }); ok && tracer != nil {
		ts.SetTracer(tracer)
	}
	var attr *obs.Attribution
	if as, ok := inner.(interface{ SetAttribution(*obs.Attribution) }); ok && cfg.Attribution {
		top := cfg.TopPages
		if top <= 0 {
			top = sim.DefaultTopPages
		}
		attr = obs.NewAttribution(top)
		as.SetAttribution(attr)
	}

	l3 := cache.New("l3", l3Bytes, 16)
	cores := make([]*cpu.Core, n)
	seam.hiers = make([]*cache.Hierarchy, n)
	for i := range cores {
		seam.hiers[i] = cache.NewHierarchy(l3)
		cores[i] = cpu.New(cfg.CPU, seam.hiers[i], ctl, src)
	}
	collect := func() cellResult { return collectComposed(mixName, cfg.System, a.profs, cores, inner, mem, l3) }
	windows := cfg.SampleWindows
	if windows <= 0 {
		windows = sim.DefaultSampleWindows
	}
	sampler := obs.NewSampler(cfg.SampleEvery, windows)
	sample := func() {
		var now uint64
		for _, c := range cores {
			now = max(now, c.Now())
		}
		sampler.Sample(now, registry(collect()).Snapshot())
	}

	// RunMix's loop; with one core it steps exactly as RunSingle's.
	warm := uint64(float64(cfg.Ops) * cfg.WarmupFrac)
	warmed := warm == 0
	done := make([]uint64, n)
	var steps uint64
	var op workload.Op
	for {
		sel := -1
		for i := range cores {
			if done[i] < cfg.Ops && (sel == -1 || cores[i].Now() < cores[sel].Now()) {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		g.startOp(steps)
		g.begin()
		streams[sel].Next(&op)
		g.end(&g.next)
		op.LineAddr += base[sel] * memctl.LinesPerPage
		seam.ops = append(seam.ops, coreOp{line: op.LineAddr, core: int32(sel), write: op.Write})
		g.begin()
		cores[sel].Step(&op)
		g.end(&g.step)
		done[sel]++
		steps++
		if cfg.SampleEvery > 0 && steps%cfg.SampleEvery == 0 {
			sample()
		}
		if !warmed && slices.Min(done) >= warm {
			inner.ResetStats()
			mem.ResetStats()
			mem.ResetTiming()
			for i := range cores {
				seam.hiers[i].ResetStats()
				cores[i].ResetStats()
			}
			attr.Reset()
			warmed = true
			seam.opsReset, seam.dramReset = len(seam.ops), len(seam.dram)
		}
	}
	g.sampled = false
	for _, c := range cores {
		c.Drain()
	}
	if cfg.SampleEvery > 0 {
		sample()
	}
	g.window += time.Since(t0)

	res := collect()
	if res.Single != nil {
		res.Single.Series = sampler.Series()
		res.Single.Trace = tracer.Trace()
		if attr != nil {
			res.Single.Attribution = attr.Snapshot()
		}
	} else {
		res.Mix.Series = sampler.Series()
		res.Mix.Trace = tracer.Trace()
		if attr != nil {
			res.Mix.Attribution = attr.Snapshot()
		}
	}
	return res, seam
}

// collectComposed builds the result the simulator would report from
// the composed run's current state.
func collectComposed(mixName string, sys sim.System, profs []workload.Profile, cores []*cpu.Core,
	ctl memctl.Controller, mem *dram.Memory, l3 *cache.Cache) cellResult {
	var md metadata.CacheStats
	if ms, ok := ctl.(interface{ MetadataCacheStats() metadata.CacheStats }); ok {
		md = ms.MetadataCacheStats()
	}
	var pageSizes obs.HistSnapshot
	if ph, ok := ctl.(interface{ PageSizeHistogramAdd(func(int)) }); ok {
		var h obs.Histogram
		ph.PageSizeHistogramAdd(func(chunks int) { h.Observe(chunks) })
		pageSizes = h.Snapshot()
	}
	var backend obs.Snapshot
	if bm, ok := ctl.(interface{ RegisterMetrics(*obs.Registry) }); ok {
		reg := obs.NewRegistry()
		bm.RegisterMetrics(reg)
		backend = reg.Snapshot()
	}
	out := cellResult{System: string(sys)}
	if mixName == "" {
		c := cores[0].Stats()
		out.Single = &sim.Result{
			Bench: profs[0].Name, System: string(sys),
			Cycles: c.Cycles, Instrs: c.Instrs, IPC: c.IPC(), CPU: c,
			Mem: ctl.Stats(), Dram: mem.Stats(), MDCache: md, L3: l3.Stats(),
			Ratio: memctl.CompressionRatio(ctl), L3MissRate: l3.Stats().MissRate(),
			PageSizes: pageSizes, BackendMetrics: backend,
		}
		return out
	}
	out.Mix = &sim.MultiResult{
		MixName: mixName, System: string(sys),
		Mem: ctl.Stats(), Dram: mem.Stats(), MDCache: md, Ratio: memctl.CompressionRatio(ctl),
		PageSizes: pageSizes, BackendMetrics: backend,
	}
	for i, c := range cores {
		s := c.Stats()
		out.Mix.Cores = append(out.Mix.Cores, sim.Result{
			Bench: profs[i].Name, System: string(sys),
			Cycles: s.Cycles, Instrs: s.Instrs, IPC: s.IPC(), CPU: s,
		})
	}
	return out
}

func registry(c cellResult) *obs.Registry {
	if c.Single != nil {
		return c.Single.Registry()
	}
	return c.Mix.Registry()
}

// replayCache feeds the recorded op stream into fresh hierarchies of
// the same geometry, resetting statistics where the run did. It returns
// the replay's duration and whether every level's counts match the run.
func (s *seamLog) replayCache() (time.Duration, bool) {
	l3 := cache.New("l3", s.l3Bytes, 16)
	hiers := make([]*cache.Hierarchy, len(s.hiers))
	for i := range hiers {
		hiers[i] = cache.NewHierarchy(l3)
	}
	reset := func() {
		for _, h := range hiers {
			h.ResetStats()
		}
	}
	t := time.Now()
	for i, op := range s.ops {
		if i == s.opsReset {
			reset()
		}
		hiers[op.core].Access(op.line, op.write)
	}
	d := time.Since(t)
	if s.opsReset == len(s.ops) {
		reset()
	}
	exact := true
	for i, h := range hiers {
		run := s.hiers[i]
		exact = exact && h.L1.Stats() == run.L1.Stats() && h.L2.Stats() == run.L2.Stats() && h.L3.Stats() == run.L3.Stats()
	}
	return d, exact
}

// replayDRAM feeds the recorded accesses into a fresh memory of the
// same configuration. Row-buffer outcomes depend on addresses alone, so
// the access and row hit, miss and conflict counts must match the run.
// It returns the replay's duration and whether they do.
func (s *seamLog) replayDRAM() (time.Duration, bool) {
	mem := dram.New(s.dcfg)
	t := time.Now()
	for i, op := range s.dram {
		if i == s.dramReset {
			mem.ResetStats()
		}
		mem.Access(uint64(i), op.line, op.write)
	}
	d := time.Since(t)
	if s.dramReset == len(s.dram) {
		mem.ResetStats()
	}
	got, want := mem.Stats(), s.mem.Stats()
	return d, got.Reads == want.Reads && got.Writes == want.Writes && got.RowHits == want.RowHits &&
		got.RowMisses == want.RowMisses && got.RowConflicts == want.RowConflicts
}
