package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"compresso/internal/compress"
	"compresso/internal/obs"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// Repetition kinds.
const (
	repPlain  = "plain"  // untraced, through the simulator's entry points
	repTraced = "traced" // the composed run with every layer call timed
	repStart  = "start"  // start-up only, to time it
)

// withObservers turns on every run observer: the attribution ledger,
// the controller-event ring and the metrics sampler.
func withObservers(cfg sim.Config) sim.Config {
	cfg.Attribution = true
	cfg.TraceEvents = 1024
	cfg.SampleEvery = 10_000
	return cfg
}

// tracedRep runs one traced repetition: the composed run of every
// system with each layer call timed, replays of its cache and DRAM
// streams, the codecs in isolation, and compresso with observers on and
// off. spansPath, when set, receives the sampled span trees as Chrome
// trace JSON.
func (w *spec) tracedRep(seed uint64, spansPath string) repRecord {
	if w.sweep {
		return sweepTraced(seed, spansPath)
	}
	profs := w.profiles()
	g := newLedger(spansPath != "")
	alloc0 := totalAlloc()
	t0 := time.Now()
	a, err := protect(func() *composedAssets { return prepareComposed(profs, w.config(w.systems[0], seed), g) })
	if err != nil {
		return repRecord{Cells: []cellOutcome{{Name: "setup", Err: err.Error()}}}
	}
	setup := time.Since(t0)

	layers := map[string]float64{}
	var run, cacheTime, dramTime time.Duration
	var cacheOps, dramOps int
	cacheExact, rowsExact := true, true
	cells := make([]cellResult, len(w.systems))
	for i, sys := range w.systems {
		g.pid = i
		g.stack = g.stack[:0] // a cell that panicked may have left calls open
		var seam *seamLog
		t := time.Now()
		res, err := protect(func() cellResult {
			r, s := runComposed(w.mix, w.config(sys, seed), a, g)
			seam = s
			return r
		})
		run += time.Since(t)
		if err != nil {
			cells[i] = cellResult{System: string(sys), Err: err}
			continue
		}
		cells[i] = res
		ct, cok := seam.replayCache()
		dt, dok := seam.replayDRAM()
		cacheTime += ct
		dramTime += dt
		cacheOps += len(seam.ops)
		dramOps += len(seam.dram)
		cacheExact = cacheExact && cok
		rowsExact = rowsExact && dok
		if !cok || !dok {
			cells[i].Err = fmt.Errorf("replay differs from the run: cache exact %v, dram rows exact %v", cok, dok)
		}
		if i == 0 {
			layers["model.l3_miss_rate"] = seam.hiers[0].L3.Stats().MissRate()
		}
	}
	rec := repRecord{
		SetupS: setup.Seconds(), RunS: run.Seconds(), AllocMB: allocMB(alloc0),
		Ops: w.ops * uint64(len(profs)*len(w.systems)), Cells: check(cells),
	}
	for k, v := range g.metrics() {
		layers[k] = v
	}
	layers["cache.access_ns"] = perUnit(cacheTime, cacheOps)
	layers["cache.accesses"] = float64(cacheOps)
	layers["cache.replay_exact"] = flag01(cacheExact)
	layers["dram.access_ns"] = perUnit(dramTime, dramOps)
	layers["dram.accesses"] = float64(dramOps)
	layers["dram.rows_exact"] = flag01(rowsExact)
	for k, v := range compressMetrics(a.images[0]) {
		layers[k] = v
	}
	obsCell, obsLayers := w.observerOverhead(profs, seed)
	rec.Cells = append(rec.Cells, obsCell)
	for k, v := range obsLayers {
		layers[k] = v
	}
	rec.Layers = layers

	if spansPath != "" {
		events := make([]obs.ChromeEvent, 0, len(w.systems)+len(g.events))
		for i, sys := range w.systems {
			events = append(events, obs.ProcessName(i, string(sys)))
		}
		if err := obs.WriteChromeTrace(spansPath, append(events, g.events...)); err != nil {
			rec.Cells = append(rec.Cells, cellOutcome{Name: "spans", Err: err.Error()})
		}
	}
	return rec
}

func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observerOverhead times the workload's inputs on compresso through
// the simulator with observers off and on, in the order off, on, on,
// off so that drift within the process cancels. Observers must not
// change the result apart from the event ring they fill, so the
// returned cell fails when the results differ otherwise.
func (w *spec) observerOverhead(profs []workload.Profile, seed uint64) (cellOutcome, map[string]float64) {
	cell := cellOutcome{Name: "compresso observers on/off"}
	off := w.config(sim.Compresso, seed)
	off.Attribution, off.TraceEvents, off.SampleEvery = false, 0, 0
	assets, err := protect(func() *sim.MixAssets { return sim.PrepareAssets(profs, off, sizeCodec, 1) })
	if err != nil {
		cell.Err = err.Error()
		return cell, nil
	}
	off.Assets = assets
	on := withObservers(off)
	var tOff, tOn time.Duration
	var res [4]cellResult
	for i, observe := range []bool{false, true, true, false} {
		cfg, spent := off, &tOff
		if observe {
			cfg, spent = on, &tOn
		}
		t := time.Now()
		res[i] = withoutTrace(w.simCell(profs, cfg))
		*spent += time.Since(t)
	}
	outs := check(res[:])
	for _, o := range outs {
		if o.Err != "" {
			cell.Err = o.Err
		} else if o.Digest != outs[0].Digest && cell.Err == "" {
			cell.Err = "observers changed the result"
		}
	}
	cell.Digest = outs[0].Digest
	m := map[string]float64{"obs.overhead_frac": tOn.Seconds()/tOff.Seconds() - 1}
	if r := res[1]; r.Single != nil {
		m["model.attr.metadata_frac.compresso"] = metadataFrac(r.Single.Attribution)
	} else if r.Mix != nil {
		m["model.attr.metadata_frac.compresso"] = metadataFrac(r.Mix.Attribution)
	}
	return cell, m
}

// withoutTrace drops the controller-event ring from a result, the one
// JSON-visible output observers add.
func withoutTrace(c cellResult) cellResult {
	if c.Single != nil {
		r := *c.Single
		r.Trace = obs.Trace{}
		c.Single = &r
	}
	if c.Mix != nil {
		r := *c.Mix
		r.Trace = obs.Trace{}
		c.Mix = &r
	}
	return c
}

// sink keeps the codec results of compressMetrics observable.
var sink int

// compressMetrics times each codec's size-only path in isolation over
// 4096 lines and LZ over 256 1 KiB blocks, sampled evenly from img.
func compressMetrics(img *workload.Image) map[string]float64 {
	const nLines, nBlocks, blockLines = 4096, 256, 16
	stride := max(img.Lines()/nLines, 1)
	var lines [][]byte
	for i := uint64(0); i < img.Lines() && len(lines) < nLines; i += stride {
		lines = append(lines, img.Line(i))
	}
	m := map[string]float64{}
	for _, c := range []compress.Codec{compress.BPC{}, compress.BDI{}, compress.FPC{}, compress.CPack{}, compress.LZ{}} {
		t := time.Now()
		for _, l := range lines {
			sink += compress.SizeOnly(c, l)
		}
		m["compress.size_ns."+c.Name()] = perUnit(time.Since(t), len(lines))
	}
	pages := uint64(img.FootprintPages())
	blocks := make([][]byte, nBlocks)
	for b := range blocks {
		first := uint64(b) * pages / nBlocks * (img.Lines() / pages)
		for j := uint64(0); j < blockLines; j++ {
			blocks[b] = append(blocks[b], img.Line(first+j)...)
		}
	}
	t := time.Now()
	for _, b := range blocks {
		sink += compress.LZSizeBlock(b)
	}
	m["compress.lz_block_ns"] = perUnit(time.Since(t), nBlocks)
	return m
}

// cellLog records every grid cell a sweep completes; it is the sweep's
// parallel.Progress sink.
type cellLog struct {
	mu    sync.Mutex
	base  time.Time
	cells []gridCell
}

type gridCell struct {
	label     string
	index     int
	end, wall time.Duration
}

func (p *cellLog) GridStart(string, int) {}
func (p *cellLog) GridEnd(string)        {}

func (p *cellLog) GridCell(label string, index int, wall time.Duration) {
	end := time.Since(p.base)
	p.mu.Lock()
	p.cells = append(p.cells, gridCell{label: label, index: index, end: end, wall: wall})
	p.mu.Unlock()
}

// sweepLabel is the grid label experiments.RunAll reports each whole
// experiment under; every other label is a simulation grid.
const sweepLabel = "all"

// sweepTraced runs the sweep with a progress sink and derives the
// experiment-grid metrics from its cells.
func sweepTraced(seed uint64, spansPath string) repRecord {
	p := &cellLog{base: time.Now()}
	rec := sweepRep(seed, p)
	var ms []float64
	var busy time.Duration
	for _, c := range p.cells {
		if c.label != sweepLabel {
			ms = append(ms, float64(c.wall.Nanoseconds())/1e6)
			busy += c.wall
		}
	}
	slices.Sort(ms)
	rec.Layers = map[string]float64{
		"experiments.cells":       float64(len(ms)),
		"experiments.cell_ms_p50": nearestRank(ms, 50),
		"experiments.cell_ms_p99": nearestRank(ms, 99),
		"experiments.cell_ms_max": nearestRank(ms, 100),
		"parallel.busy_frac":      busy.Seconds() / (float64(sweepJobs()) * rec.RunS),
	}
	if spansPath != "" {
		if err := obs.WriteChromeTrace(spansPath, p.events()); err != nil {
			rec.Cells = append(rec.Cells, cellOutcome{Name: "spans", Err: err.Error()})
		}
	}
	return rec
}

// events renders the cells as Chrome trace spans, packed into lanes so
// that spans sharing a lane never overlap.
func (p *cellLog) events() []obs.ChromeEvent {
	cells := slices.Clone(p.cells)
	slices.SortFunc(cells, func(a, b gridCell) int { return int((a.end - a.wall) - (b.end - b.wall)) })
	var laneEnd []time.Duration
	out := []obs.ChromeEvent{obs.ProcessName(0, "experiments")}
	for _, c := range cells {
		start := c.end - c.wall
		lane := slices.IndexFunc(laneEnd, func(e time.Duration) bool { return e <= start })
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = c.end
		out = append(out, obs.ChromeEvent{
			Name: c.label, Cat: "cell", Phase: "X", Tid: lane,
			TsUs: float64(start.Nanoseconds()) / 1e3, DurUs: float64(c.wall.Nanoseconds()) / 1e3,
			Args: map[string]any{"index": c.index},
		})
	}
	return out
}
