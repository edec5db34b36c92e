package workload

import (
	"math"

	"compresso/internal/datagen"
	"compresso/internal/memctl"
	"compresso/internal/rng"
)

// Op is one CPU memory operation with the non-memory instruction count
// preceding it (the trace format the timing core consumes).
type Op struct {
	NonMemInstrs int
	LineAddr     uint64
	Write        bool
}

// Trace generates a benchmark's memory-access stream and applies store
// mutations to the image as it goes. Deterministic for a given
// (profile, seed, totalOps).
type Trace struct {
	prof     Profile
	img      *Image
	r        *rng.Rand
	zipf     *rng.ZipfGen
	hotPages []int

	cur     uint64 // current line address during a run
	runLeft int

	opIndex  uint64
	totalOps uint64
	phaseEnd []uint64 // cumulative op counts per phase
}

// CoreSeed is core i's workload seed in a multi-core run seeded with
// seed: a prime stride keeps the cores' images and op streams apart.
func CoreSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 }

// NewTrace builds a trace over a fresh image. totalOps scales the
// profile's phases onto the stream; use the number of operations you
// intend to draw (more draws simply repeat the last phase).
func NewTrace(prof Profile, seed uint64, totalOps uint64) *Trace {
	return NewTraceOn(NewImage(prof, seed), prof, seed, totalOps)
}

// NewTraceOn builds a trace over a caller-supplied image. img must be
// equivalent to NewImage(prof, seed) — typically a Clone of a shared
// master image (sim.MixAssets) — or determinism versus NewTrace is
// lost. The trace's RNG stream is independent of the image's, so a
// pre-materialized image yields a byte-identical run.
func NewTraceOn(img *Image, prof Profile, seed uint64, totalOps uint64) *Trace {
	r := rng.New(seed*0x5851f42d4c957f2d + 1)
	hotCount := int(float64(prof.FootprintPages) * prof.HotFraction)
	if hotCount < 1 {
		hotCount = 1
	}
	perm := r.Perm(prof.FootprintPages)
	t := &Trace{
		prof:     prof,
		img:      img,
		r:        r,
		hotPages: perm[:hotCount],
		zipf:     rng.NewZipf(r, hotCount, maxf(prof.ZipfTheta, 0.05)),
		totalOps: totalOps,
	}
	if len(prof.Phases) > 0 {
		sum := 0.0
		for _, ph := range prof.Phases {
			sum += ph.Frac
		}
		acc := 0.0
		for _, ph := range prof.Phases {
			acc += ph.Frac / sum
			t.phaseEnd = append(t.phaseEnd, uint64(acc*float64(totalOps)))
		}
	}
	return t
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Image returns the trace's backing image.
func (t *Trace) Image() *Image { return t.img }

// Profile returns the trace's profile.
func (t *Trace) Profile() Profile { return t.prof }

// phase returns the store-behaviour parameters for the current op.
func (t *Trace) phase() (kindChange, zeroStore float64, storeMix datagen.Mix, hasMix bool) {
	kindChange, zeroStore = t.prof.KindChange, t.prof.ZeroStore
	if len(t.phaseEnd) == 0 {
		return kindChange, zeroStore, storeMix, false
	}
	idx := len(t.phaseEnd) - 1
	for i, end := range t.phaseEnd {
		if t.opIndex < end {
			idx = i
			break
		}
	}
	ph := t.prof.Phases[idx]
	var empty datagen.Mix
	return ph.KindChange, ph.ZeroStore, ph.StoreKind, ph.StoreKind != empty
}

// PhaseIndex returns the current phase number (0 when unphased).
func (t *Trace) PhaseIndex() int {
	if len(t.phaseEnd) == 0 {
		return 0
	}
	for i, end := range t.phaseEnd {
		if t.opIndex < end {
			return i
		}
	}
	return len(t.phaseEnd) - 1
}

// newRun starts a fresh access run at a freshly chosen location.
func (t *Trace) newRun() {
	var page uint64
	if t.r.Bool(t.prof.HotProb) {
		page = uint64(t.hotPages[t.zipf.Next()])
	} else {
		page = uint64(t.r.Intn(t.prof.FootprintPages))
	}
	line := uint64(t.r.Intn(memctl.LinesPerPage))
	t.cur = page*memctl.LinesPerPage + line
	// Geometric run length with the profile's mean.
	mean := t.prof.SpatialRun
	if mean < 1 {
		mean = 1
	}
	u := t.r.Float64()
	run := 1 + int(-math.Log(1-u)*(mean-0.5))
	if run > 512 {
		run = 512
	}
	t.runLeft = run
}

// Next fills op with the next memory operation, mutating the image for
// stores.
func (t *Trace) Next(op *Op) {
	if t.runLeft <= 0 {
		t.newRun()
	}
	t.runLeft--
	addr := t.cur % t.img.Lines()
	t.cur++

	write := t.r.Bool(t.prof.WriteFrac)
	if write {
		t.applyStore(addr)
	}
	mean := t.prof.InstrPerOp
	instrs := t.r.Intn(int(2*mean) + 1)

	op.NonMemInstrs = instrs
	op.LineAddr = addr
	op.Write = write
	t.opIndex++
}

// applyStore mutates the image line per the current phase's store
// behaviour.
func (t *Trace) applyStore(addr uint64) {
	line := t.img.Line(addr)
	t.img.noteStore(addr)
	kindChange, zeroStore, storeMix, hasMix := t.phase()
	if !t.r.Bool(kindChange) {
		datagen.Perturb(t.r, line)
		return
	}
	switch {
	case t.r.Bool(zeroStore):
		datagen.FillLine(t.r, datagen.Zero, line)
	case hasMix:
		datagen.FillLine(t.r, storeMix.Pick(t.r), line)
	default:
		datagen.FillLine(t.r, t.noiseKind(), line)
	}
}

func (t *Trace) noiseKind() datagen.Kind {
	return t.prof.Flavor.mix().Pick(t.r)
}

// Ops runs n operations through fn (a convenience driver).
func (t *Trace) Ops(n uint64, fn func(*Op)) {
	var op Op
	for i := uint64(0); i < n; i++ {
		t.Next(&op)
		fn(&op)
	}
}
