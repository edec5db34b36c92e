package capacity

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/oskernel"
	"compresso/internal/workload"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Ops = 60_000
	cfg.Intervals = 6
	cfg.FootprintScale = 16
	return cfg
}

// record runs stage 1 for one named benchmark, a one-core mix.
func record(t *testing.T, name string, cfg Config) *Recording {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Profile(prof.Name, []workload.Profile{prof}, cfg)
}

// mix2 returns Tab. IV's mix2 profiles.
func mix2(t *testing.T) []workload.Profile {
	t.Helper()
	var profs []workload.Profile
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	return profs
}

func TestEvaluateOrdering(t *testing.T) {
	// The fundamental Tab. II ordering: unconstrained >= compresso >=
	// lcp >= uncompressed-constrained (within tolerance) for a
	// compressible, memory-sensitive benchmark.
	out := record(t, "soplex", quickCfg()).At(0.7)
	if out.RelPerf[Uncompressed] != 1 {
		t.Fatalf("baseline rel perf %v != 1", out.RelPerf[Uncompressed])
	}
	if out.RelPerf[Compresso] < 1 {
		t.Fatalf("compresso rel perf %v < baseline", out.RelPerf[Compresso])
	}
	if out.RelPerf[Compresso] < out.RelPerf[LCP]-1e-9 {
		t.Fatalf("compresso %v below lcp %v", out.RelPerf[Compresso], out.RelPerf[LCP])
	}
	if out.Unconstrained < out.RelPerf[Compresso]-1e-9 {
		t.Fatalf("unconstrained %v below compresso %v", out.Unconstrained, out.RelPerf[Compresso])
	}
	t.Logf("soplex@70%%: lcp %.3f compresso %.3f unconstrained %.3f",
		out.RelPerf[LCP], out.RelPerf[Compresso], out.Unconstrained)
}

func TestTighterMemoryBiggerBenefit(t *testing.T) {
	// Tab. II: benefits grow as memory shrinks (80% -> 60%).
	rec := record(t, "xalancbmk", quickCfg())
	loose, tight := rec.At(0.85), rec.At(0.6)
	if tight.Unconstrained <= loose.Unconstrained {
		t.Fatalf("unconstrained benefit did not grow: %.3f@85%% vs %.3f@60%%",
			loose.Unconstrained, tight.Unconstrained)
	}
}

func TestIncompressibleCapturesLessHeadroom(t *testing.T) {
	// mcf barely compresses (ratio ~1.25 < the 1/0.7 needed to erase a
	// 70% constraint), so compression recovers a smaller fraction of
	// its unconstrained-memory headroom than it does for highly
	// compressible gcc (ratio ~2.6).
	captured := func(name string) float64 {
		out := record(t, name, quickCfg()).At(0.7)
		head := out.Unconstrained - 1
		if head <= 0 {
			return 1
		}
		return (out.RelPerf[Compresso] - 1) / head
	}
	mcf, gcc := captured("mcf"), captured("gcc")
	if mcf >= gcc {
		t.Fatalf("mcf captured %.3f of headroom >= gcc %.3f", mcf, gcc)
	}
}

func TestNoRepackRatioLoss(t *testing.T) {
	// Fig. 7: without repacking, mean ratio is lower (storage is a
	// high watermark) for a churn-heavy benchmark.
	out := record(t, "GemsFDTD", quickCfg()).At(0.7)
	if out.MeanRatio[CompressoNoRepack] > out.MeanRatio[Compresso] {
		t.Fatalf("no-repack ratio %.3f above repack ratio %.3f",
			out.MeanRatio[CompressoNoRepack], out.MeanRatio[Compresso])
	}
	if out.MeanRatio[CompressoNoRepack] >= out.MeanRatio[Compresso]*0.995 {
		t.Logf("warning: repack gap small: %.3f vs %.3f",
			out.MeanRatio[CompressoNoRepack], out.MeanRatio[Compresso])
	}
}

func TestCompressoRatioBeatsLCP(t *testing.T) {
	// The §II-C packing comparison on evolved images.
	out := record(t, "cactusADM", quickCfg()).At(0.7)
	if out.MeanRatio[Compresso] <= out.MeanRatio[LCP] {
		t.Fatalf("compresso ratio %.3f <= lcp ratio %.3f",
			out.MeanRatio[Compresso], out.MeanRatio[LCP])
	}
}

func TestEvaluateMix(t *testing.T) {
	cfg := quickCfg()
	cfg.Ops = 20_000
	out := Profile("mix2", mix2(t), cfg).At(0.7)
	if out.RelPerf[Uncompressed] != 1 {
		t.Fatalf("baseline %v", out.RelPerf[Uncompressed])
	}
	if out.RelPerf[Compresso] < 1 || out.Unconstrained < out.RelPerf[Compresso]-1e-9 {
		t.Fatalf("mix ordering broken: compresso %.3f unconstrained %.3f",
			out.RelPerf[Compresso], out.Unconstrained)
	}
	// The bookkeeping fields cover every core's touches.
	if out.Bench != "mix2" || out.Frac != 0.7 || out.RecordedTouch != 4*int(cfg.Ops) {
		t.Fatalf("mix bookkeeping: bench %q frac %v touches %d", out.Bench, out.Frac, out.RecordedTouch)
	}
	if out.MeanRatio[Uncompressed] != 1 || out.FootprintB <= 0 ||
		out.BaselineRate != float64(out.Faults[Uncompressed])/float64(out.RecordedTouch) {
		t.Fatalf("mix outcome incomplete: %+v", out)
	}
}

func TestSizerString(t *testing.T) {
	if Compresso.String() != "compresso" || LCPAlign.String() != "lcp-align" ||
		CompressoNoRepack.String() != "compresso-norepack" {
		t.Fatal("sizer names wrong")
	}
	if Sizer(99).String() != "Sizer(99)" {
		t.Fatal("unknown sizer name wrong")
	}
}

func TestOverallPerformance(t *testing.T) {
	if OverallPerformance(0.998, 1.29) != 0.998*1.29 {
		t.Fatal("overall perf not multiplicative")
	}
}

func TestPageMath(t *testing.T) {
	// All-zero page costs nothing everywhere.
	zeros := make([]uint8, 64)
	if LinePackPageBytes(zeros, compress.CompressoBins) != 0 || LCPPageBytes(zeros, compress.LegacyBins) != 0 {
		t.Fatal("zero page priced nonzero")
	}
	// Uniform 8-byte lines: Compresso 1 chunk; LCP rounds to 2 K with
	// legacy bins (64*22=1408) but 512 with aligned bins (64*8).
	eights := make([]uint8, 64)
	for i := range eights {
		eights[i] = 8
	}
	if got := LinePackPageBytes(eights, compress.CompressoBins); got != 512 {
		t.Fatalf("compresso uniform-8 page = %d", got)
	}
	if got := LCPPageBytes(eights, compress.LegacyBins); got != 2048 {
		t.Fatalf("lcp legacy uniform-8 page = %d", got)
	}
	if got := LCPPageBytes(eights, compress.CompressoBins); got != 512 {
		t.Fatalf("lcp aligned uniform-8 page = %d", got)
	}
	// Heterogeneous page: half 8 B, half 64 B lines. LinePack packs
	// 32*8+32*64 = 2304 -> 2560 B. LCP's best aligned target is 8
	// (64*8 + 32*64 = 2560) but page rounding to {.5,1,2,4}K pushes it
	// to 4096 — the §II-C flexibility gap.
	var mixed [64]uint8
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = 8
		} else {
			mixed[i] = 64
		}
	}
	if got := LinePackPageBytes(mixed[:], compress.CompressoBins); got != 2560 {
		t.Fatalf("compresso mixed page = %d", got)
	}
	if got := LCPPageBytes(mixed[:], compress.CompressoBins); got != 4096 {
		t.Fatalf("lcp mixed page = %d", got)
	}
	// With one zero line per pair, target 0 + exceptions wins: 32
	// exceptions * 64 B = 2048.
	var sparse [64]uint8
	for i := range sparse {
		if i%2 == 1 {
			sparse[i] = 64
		}
	}
	if got := LCPPageBytes(sparse[:], compress.CompressoBins); got != 2048 {
		t.Fatalf("lcp sparse page = %d", got)
	}
}

func TestDeterministic(t *testing.T) {
	a := record(t, "astar", quickCfg()).At(0.7)
	b := record(t, "astar", quickCfg()).At(0.7)
	if a != b {
		t.Fatal("capacity evaluation not deterministic")
	}
}

// oneShotEvaluate is the pre-split single-fraction benchmark
// methodology, kept as the differential oracle for Profile/At: stage 1
// and stage 2 in one pass at frac, with its own single-tracker ratios
// and replay.
func oneShotEvaluate(prof workload.Profile, cfg Config, frac float64) Outcome {
	prof = workload.Scale(prof, cfg.FootprintScale)
	tr := workload.NewTrace(prof, cfg.Seed, cfg.Ops)
	trk := newTracker(tr.Image(), cfg.Jobs)
	var touches []uint32
	var ratios [][NSizers]float64
	interval := max(cfg.Ops/uint64(cfg.Intervals), 1)
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		tr.Next(&op)
		touches = append(touches, uint32(op.LineAddr/memctl.LinesPerPage))
		if op.Write {
			trk.noteStore(op.LineAddr)
		}
		if (i+1)%interval == 0 && len(ratios) < cfg.Intervals {
			trk.refresh()
			ratios = append(ratios, trk.ratios())
		}
	}
	for len(ratios) < cfg.Intervals {
		trk.refresh()
		ratios = append(ratios, trk.ratios())
	}
	footprint := int64(prof.FootprintPages) * memctl.PageSize
	out := Outcome{Bench: prof.Name, Frac: frac, FootprintB: footprint, RecordedTouch: len(touches)}
	var times [NSizers]float64
	for s := Sizer(0); s < NSizers; s++ {
		out.Faults[s] = replay(touches, interval, func(iv int) int64 {
			return int64(frac * float64(footprint) * ratios[min(iv, len(ratios)-1)][s])
		})
		times[s] = float64(len(touches)) + float64(out.Faults[s])*cfg.SwapCostOps
		total := 0.0
		for _, rv := range ratios {
			total += rv[s]
		}
		out.MeanRatio[s] = total / float64(len(ratios))
	}
	for s := Sizer(0); s < NSizers; s++ {
		out.RelPerf[s] = times[Uncompressed] / times[s]
	}
	out.Unconstrained = times[Uncompressed] / float64(len(touches))
	out.BaselineRate = float64(out.Faults[Uncompressed]) / float64(len(touches))
	return out
}

// replay runs the touch stream through an LRU pager whose budget is
// refreshed per interval, returning the fault count.
func replay(touches []uint32, interval uint64, budget func(iv int) int64) uint64 {
	pager := oskernel.NewPager(budget(0))
	for i, page := range touches {
		if i > 0 && uint64(i)%interval == 0 {
			pager.SetBudget(budget(int(uint64(i) / interval)))
		}
		pager.Touch(uint64(page))
	}
	return pager.Faults()
}

// ratios returns one tracker's footprint/storage per sizer.
func (t *tracker) ratios() [NSizers]float64 {
	var out [NSizers]float64
	fp := float64(t.footprintBytes())
	for s := Sizer(0); s < NSizers; s++ {
		if t.totals[s] <= 0 {
			out[s] = fp // fully-zero image: effectively unbounded
			continue
		}
		out[s] = fp / float64(t.totals[s])
	}
	return out
}

// mixOutcome is what the pre-split mix methodology reported.
type mixOutcome struct {
	RelPerf       [NSizers]float64
	Unconstrained float64
}

// mixStep is one touch of the oracle's interleaved stream: a global
// page id and the core that made it.
type mixStep struct {
	page uint32
	core uint8
}

// oneShotEvaluateMix is the pre-split single-fraction mix methodology.
func oneShotEvaluateMix(profs []workload.Profile, cfg Config, frac float64) mixOutcome {
	n := len(profs)
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	pageBase := make([]uint64, n)
	var footprint int64
	var nextPage uint64
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, workload.CoreSeed(cfg.Seed, i), cfg.Ops)
		trackers[i] = newTracker(traces[i].Image(), cfg.Jobs)
		pageBase[i] = nextPage
		nextPage += uint64(p.FootprintPages)
		footprint += int64(p.FootprintPages) * memctl.PageSize
	}
	var steps []mixStep
	interval := max(cfg.Ops*uint64(n)/uint64(cfg.Intervals), 1)
	var ratios [][NSizers]float64
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		for c := 0; c < n; c++ {
			traces[c].Next(&op)
			if op.Write {
				trackers[c].noteStore(op.LineAddr)
			}
			steps = append(steps, mixStep{page: uint32(pageBase[c] + op.LineAddr/memctl.LinesPerPage), core: uint8(c)})
			if uint64(len(steps))%interval == 0 && len(ratios) < cfg.Intervals {
				ratios = append(ratios, combinedRatios(trackers))
			}
		}
	}
	for len(ratios) < cfg.Intervals {
		ratios = append(ratios, combinedRatios(trackers))
	}
	var out mixOutcome
	var times [NSizers][]float64
	for s := Sizer(0); s < NSizers; s++ {
		pager := oskernel.NewPager(int64(frac * float64(footprint) * ratios[0][s]))
		coreFaults := make([]uint64, n)
		for i, st := range steps {
			if i > 0 && uint64(i)%interval == 0 {
				iv := min(int(uint64(i)/interval), len(ratios)-1)
				pager.SetBudget(int64(frac * float64(footprint) * ratios[iv][s]))
			}
			if pager.Touch(uint64(st.page)) {
				coreFaults[st.core]++
			}
		}
		times[s] = make([]float64, n)
		for c := range times[s] {
			times[s][c] = float64(cfg.Ops) + float64(coreFaults[c])*cfg.SwapCostOps
		}
	}
	for s := Sizer(0); s < NSizers; s++ {
		total := 0.0
		for c := 0; c < n; c++ {
			total += times[Uncompressed][c] / times[s][c]
		}
		out.RelPerf[s] = total / float64(n)
	}
	total := 0.0
	for c := 0; c < n; c++ {
		total += times[Uncompressed][c] / float64(cfg.Ops)
	}
	out.Unconstrained = total / float64(n)
	return out
}

// TestProfileAtMatchesOneShot is the differential for the one capacity
// path: one recording replayed at Tab. II's three fractions (in an
// order other than the table's, so a replay that disturbed the
// recording would show) equals the one-shot evaluation at each
// fraction. For a one-core recording every Outcome field must match
// the benchmark oracle, across benchmarks, footprint scales and an
// image scaled down to the minimum page count; for a mix, the fields
// the mix oracle reported must match.
func TestProfileAtMatchesOneShot(t *testing.T) {
	fracs := []float64{0.6, 0.8, 0.7}
	type benchCase struct {
		name  string
		scale int
		ops   uint64
	}
	var cases []benchCase
	for _, name := range []string{"soplex", "gcc", "GemsFDTD", "mcf", "libquantum", "Graph500"} {
		cases = append(cases, benchCase{name, 16, 60_000}, benchCase{name, 4, 20_000})
	}
	// A scale this large clamps the image to the minimum page count.
	cases = append(cases, benchCase{"soplex", 1 << 20, 20_000})
	for _, c := range cases {
		prof, err := workload.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg()
		cfg.FootprintScale, cfg.Ops = c.scale, c.ops
		rec := Profile(prof.Name, []workload.Profile{prof}, cfg)
		for _, f := range fracs {
			if got, want := rec.At(f), oneShotEvaluate(prof, cfg, f); got != want {
				t.Errorf("%s/scale %d at %.1f: At = %+v, one-shot = %+v", c.name, c.scale, f, got, want)
			}
		}
	}

	profs := mix2(t)
	cfg := quickCfg()
	cfg.Ops = 20_000
	rec := Profile("mix2", profs, cfg)
	for _, f := range fracs {
		out := rec.At(f)
		got := mixOutcome{RelPerf: out.RelPerf, Unconstrained: out.Unconstrained}
		if want := oneShotEvaluateMix(profs, cfg, f); got != want {
			t.Errorf("mix2 at %.1f: At = %+v, one-shot = %+v", f, got, want)
		}
	}
}

// TestJobsInvariant pins the tracker's byte-identical fan-out: the
// Outcome of a benchmark and of a mix is the same at Jobs 1 and 4.
func TestJobsInvariant(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		profs []workload.Profile
	}{{"gcc", []workload.Profile{prof}}, {"mix2", mix2(t)}} {
		cfg := quickCfg()
		cfg.Ops = 20_000
		cfg.Jobs = 1
		serial := Profile(c.name, c.profs, cfg).At(0.7)
		cfg.Jobs = 4
		if fanned := Profile(c.name, c.profs, cfg).At(0.7); fanned != serial {
			t.Errorf("%s: Jobs 4 = %+v, Jobs 1 = %+v", c.name, fanned, serial)
		}
	}
}

// fuzzPages is the page-id range of FuzzStackReplayMatchesPager's
// touch streams.
const fuzzPages = 64

// fuzzBudget encodes a budget in bytes for FuzzStackReplayMatchesPager:
// an int16 in 16-byte units, so a schedule reaches zero, negative
// (unconstrained), non-page-multiple and above-footprint budgets.
func fuzzBudget(bytes int64) []byte {
	return binary.LittleEndian.AppendUint16(nil, uint16(int16(bytes/16)))
}

// FuzzStackReplayMatchesPager is the differential for stage 2's
// one-pass replay: stack depths from stackDepths, replayed by
// replayDepths for every sizer of one to three fractions (lanes) at
// once, fault on the same touches of the same cores as one
// oskernel.Pager per lane and sizer whose budget is set at each
// interval boundary. Each stream byte is one touch: the low six bits
// pick the page, the top two the core. The budget schedule cycles
// through the decoded budgets, one per (interval, lane, sizer).
func FuzzStackReplayMatchesPager(f *testing.F) {
	loop := make([]byte, 200)
	for i := range loop {
		loop[i] = byte(i%23) | byte(i%4)<<6
	}
	f.Add(loop, uint8(0), uint8(7), uint8(0), fuzzBudget(0))
	f.Add(loop, uint8(3), uint8(5), uint8(2), fuzzBudget(3*memctl.PageSize+112))
	f.Add(loop, uint8(1), uint8(1), uint8(1), fuzzBudget(2*fuzzPages*memctl.PageSize))
	f.Add(loop, uint8(2), uint8(9), uint8(0), fuzzBudget(-16))
	f.Add(loop, uint8(3), uint8(3), uint8(2), slices.Concat(fuzzBudget(5*memctl.PageSize), fuzzBudget(0),
		fuzzBudget(-1600), fuzzBudget(memctl.PageSize-16), fuzzBudget(40*memctl.PageSize+48),
		fuzzBudget(2*memctl.PageSize), fuzzBudget(7*memctl.PageSize)))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, stream []byte, cores, interval, fracs uint8, schedule []byte) {
		nCores := 1 + int(cores)%4
		every := 1 + uint64(interval)%32
		lanes := 1 + int(fracs)%3
		budget := func(iv, lane int, s Sizer) int64 {
			n := len(schedule) / 2
			if n == 0 {
				return -1
			}
			k := 2 * (((iv*lanes+lane)*int(NSizers) + int(s)) % n)
			return int64(int16(binary.LittleEndian.Uint16(schedule[k:]))) * 16
		}
		pages := make([]uint32, len(stream))
		coreOf := make([]uint8, len(stream))
		depths := make([]uint32, len(stream))
		stack := newStackDepths(len(stream), fuzzPages)
		for i, b := range stream {
			pages[i] = uint32(b % fuzzPages)
			coreOf[i] = (b >> 6) % uint8(nCores)
			depths[i] = stack.touch(pages[i])
		}
		got := replayDepths(depths, coreOf, nCores, every, lanes, budget)
		for lane := range lanes {
			for s := Sizer(0); s < NSizers; s++ {
				pager := oskernel.NewPager(budget(0, lane, s))
				want := make([]uint64, nCores)
				for i, page := range pages {
					if i > 0 && uint64(i)%every == 0 {
						pager.SetBudget(budget(int(uint64(i)/every), lane, s))
					}
					if pager.Touch(uint64(page)) {
						want[coreOf[i]]++
					}
				}
				for c := range want {
					if got[lane][c][s] != want[c] {
						t.Fatalf("lane %d sizer %v core %d: replay %d faults, pager %d", lane, s, c, got[lane][c][s], want[c])
					}
				}
			}
		}
	})
}

// TestAtEachMatchesAt: the one walk over a recording at several
// fractions gives, for each, exactly the Outcome of a replay at that
// fraction alone, for a benchmark and a mix, fractions in any order and
// repeated.
func TestAtEachMatchesAt(t *testing.T) {
	fracs := []float64{0.8, 0.7, 0.6, 0.95, 0.7, 0.3}
	for _, rec := range []*Recording{
		record(t, "soplex", quickCfg()),
		Profile("mix2", mix2(t), quickCfg()),
	} {
		outs := rec.AtEach(fracs)
		if len(outs) != len(fracs) {
			t.Fatalf("%s: %d outcomes for %d fractions", rec.name, len(outs), len(fracs))
		}
		for i, frac := range fracs {
			if want := rec.At(frac); outs[i] != want {
				t.Errorf("%s at %v: one walk gave %+v, alone %+v", rec.name, frac, outs[i], want)
			}
		}
	}
}

// TestProfileGuardsTouchIndex pins the depth pass's bound: a recording
// of ops touches per core on cores cores must fit the Fenwick tree's
// int32 time index. The bound is computed without allocating a stream
// of that size, and Profile checks it before building anything.
func TestProfileGuardsTouchIndex(t *testing.T) {
	for _, c := range []struct {
		ops   uint64
		cores int
		ok    bool
	}{
		{600_000, 4, true},
		{math.MaxInt32, 1, true},
		{math.MaxInt32 / 4, 4, true},
		{math.MaxInt32/4 + 1, 4, false},
		{math.MaxInt32 + 1, 1, false},
		{1 << 40, 256, false},
		{math.MaxUint64, 2, false},
	} {
		name := fmt.Sprintf("%dx%d", c.ops, c.cores)
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if c.ok && r != nil {
					t.Fatalf("touchCount panicked: %v", r)
				}
				if !c.ok {
					if msg, isStr := r.(string); !isStr || !strings.Contains(msg, "stack-depth") {
						t.Fatalf("touchCount gave no clear panic for an unindexable stream: %v", r)
					}
				}
			}()
			if n := touchCount(c.ops, c.cores); uint64(n) != c.ops*uint64(c.cores) {
				t.Fatalf("touchCount = %d, want %d", n, c.ops*uint64(c.cores))
			}
		})
	}
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "stack-depth") {
			t.Fatalf("Profile did not reject an unindexable stream before building it: %v", r)
		}
	}()
	cfg := quickCfg()
	cfg.Ops = math.MaxInt32
	Profile("mix2", mix2(t), cfg)
}
