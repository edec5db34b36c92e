package capacity

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/oskernel"
	"compresso/internal/workload"
)

func quickCfg(frac float64) Config {
	cfg := DefaultConfig(frac)
	cfg.Ops = 60_000
	cfg.Intervals = 6
	cfg.FootprintScale = 16
	return cfg
}

func TestEvaluateOrdering(t *testing.T) {
	// The fundamental Tab. II ordering: unconstrained >= compresso >=
	// lcp >= uncompressed-constrained (within tolerance) for a
	// compressible, memory-sensitive benchmark.
	prof, _ := workload.ByName("soplex")
	out := Evaluate(prof, quickCfg(0.7))
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
	prof, _ := workload.ByName("xalancbmk")
	loose := Evaluate(prof, quickCfg(0.85))
	tight := Evaluate(prof, quickCfg(0.6))
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
		p, _ := workload.ByName(name)
		out := Evaluate(p, quickCfg(0.7))
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
	prof, _ := workload.ByName("GemsFDTD")
	out := Evaluate(prof, quickCfg(0.7))
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
	prof, _ := workload.ByName("cactusADM")
	out := Evaluate(prof, quickCfg(0.7))
	if out.MeanRatio[Compresso] <= out.MeanRatio[LCP] {
		t.Fatalf("compresso ratio %.3f <= lcp ratio %.3f",
			out.MeanRatio[Compresso], out.MeanRatio[LCP])
	}
}

func TestEvaluateMix(t *testing.T) {
	profs := []workload.Profile{}
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	cfg := quickCfg(0.7)
	cfg.Ops = 20_000
	out := EvaluateMix("mix2", profs, cfg)
	if out.RelPerf[Uncompressed] != 1 {
		t.Fatalf("baseline %v", out.RelPerf[Uncompressed])
	}
	if out.RelPerf[Compresso] < 1 || out.Unconstrained < out.RelPerf[Compresso]-1e-9 {
		t.Fatalf("mix ordering broken: compresso %.3f unconstrained %.3f",
			out.RelPerf[Compresso], out.Unconstrained)
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
	prof, _ := workload.ByName("astar")
	a := Evaluate(prof, quickCfg(0.7))
	b := Evaluate(prof, quickCfg(0.7))
	if a != b {
		t.Fatal("capacity evaluation not deterministic")
	}
}

// oneShotEvaluate is the pre-split single-fraction methodology, kept as
// the differential oracle for Profile/At: stage 1 and stage 2 in one
// pass at cfg.Frac.
func oneShotEvaluate(prof workload.Profile, cfg Config) Outcome {
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
	out := Outcome{Bench: prof.Name, Frac: cfg.Frac, FootprintB: footprint, RecordedTouch: len(touches)}
	var times [NSizers]float64
	for s := Sizer(0); s < NSizers; s++ {
		out.Faults[s] = replay(touches, interval, func(iv int) int64 {
			return int64(cfg.Frac * float64(footprint) * ratios[clampIdx(iv, len(ratios))][s])
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

// oneShotEvaluateMix is the pre-split single-fraction mix methodology.
func oneShotEvaluateMix(mixName string, profs []workload.Profile, cfg Config) MixOutcome {
	n := len(profs)
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	pageBase := make([]uint64, n)
	var footprint int64
	var nextPage uint64
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, cfg.Seed+uint64(i)*7919, cfg.Ops)
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
	out := MixOutcome{MixName: mixName}
	var times [NSizers][]float64
	for s := Sizer(0); s < NSizers; s++ {
		pager := oskernel.NewPager(int64(cfg.Frac * float64(footprint) * ratios[0][s]))
		coreFaults := make([]uint64, n)
		for i, st := range steps {
			if i > 0 && uint64(i)%interval == 0 {
				iv := clampIdx(int(uint64(i)/interval), len(ratios))
				pager.SetBudget(int64(cfg.Frac * float64(footprint) * ratios[iv][s]))
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

// TestProfileAtMatchesOneShot is the differential for the stage split:
// one profile replayed at Tab. II's three fractions (in an order other
// than the table's, so a replay that disturbed the profile would show)
// equals the one-shot evaluation at each fraction, for a benchmark and
// for a mix.
func TestProfileAtMatchesOneShot(t *testing.T) {
	fracs := []float64{0.6, 0.8, 0.7}
	prof, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	p := Profile(prof, quickCfg(0))
	for _, f := range fracs {
		if got, want := p.At(f), oneShotEvaluate(prof, quickCfg(f)); got != want {
			t.Errorf("soplex at %.1f: At = %+v, one-shot = %+v", f, got, want)
		}
	}

	var profs []workload.Profile
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	cfg := quickCfg(0)
	cfg.Ops = 20_000
	mp := ProfileMix("mix2", profs, cfg)
	for _, f := range fracs {
		want := cfg
		want.Frac = f
		if got, want := mp.At(f), oneShotEvaluateMix("mix2", profs, want); got != want {
			t.Errorf("mix2 at %.1f: At = %+v, one-shot = %+v", f, got, want)
		}
	}
}
