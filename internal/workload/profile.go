// Package workload synthesizes the paper's 30 benchmarks (SPEC
// CPU2006 subset + Graph500, Forestfire, Pagerank) as parameterized
// memory workloads: a data image whose lines really compress the way
// the paper's Fig. 2 reports, plus an access stream with the
// benchmark's locality, intensity and store behaviour.
//
// We do not have SPEC binaries or memory dumps; each Profile encodes
// the benchmark's *memory personality*: target compression ratio
// (calibrated against Fig. 2's BPC+LinePack bars), data flavor
// (integer/float/pointer/text/graph), footprint, locality, write
// fraction, memory intensity, and compressibility phases. See
// DESIGN.md §1 for the substitution argument.
package workload

import (
	"fmt"
	"sync"

	"compresso/internal/compress"
	"compresso/internal/datagen"
	"compresso/internal/rng"
)

// Flavor names the composition of a benchmark's non-zero data.
type Flavor int

// Flavors.
const (
	IntFlavor     Flavor = iota // counters, indices, small fields
	FloatFlavor                 // smooth numeric fields
	PointerFlavor               // linked structures
	TextFlavor                  // strings and parse buffers
	GraphFlavor                 // CSR indices + edge payloads
	MediaFlavor                 // quantized coefficients, mixed noise
)

// mix returns the non-zero page-kind mix of a flavor.
func (f Flavor) mix() datagen.Mix {
	var m datagen.Mix
	switch f {
	case IntFlavor:
		m[datagen.Seq] = 0.30
		m[datagen.SmallInt] = 0.40
		m[datagen.Repeated] = 0.10
		m[datagen.Random] = 0.20
	case FloatFlavor:
		m[datagen.SmoothFloat] = 0.45
		m[datagen.Seq] = 0.15
		m[datagen.SmallInt] = 0.10
		m[datagen.Random] = 0.30
	case PointerFlavor:
		m[datagen.Pointer] = 0.45
		m[datagen.SmallInt] = 0.25
		m[datagen.Random] = 0.30
	case TextFlavor:
		m[datagen.Text] = 0.45
		m[datagen.SmallInt] = 0.25
		m[datagen.Seq] = 0.10
		m[datagen.Random] = 0.20
	case GraphFlavor:
		m[datagen.Seq] = 0.35
		m[datagen.Pointer] = 0.25
		m[datagen.SmallInt] = 0.25
		m[datagen.Random] = 0.15
	case MediaFlavor:
		m[datagen.SmallInt] = 0.35
		m[datagen.Repeated] = 0.10
		m[datagen.Random] = 0.45
		m[datagen.Text] = 0.10
	default:
		panic(fmt.Sprintf("workload: unknown flavor %d", int(f)))
	}
	return m
}

// Phase modulates store behaviour over a fraction of the run,
// producing the compressibility phases CompressPoints exist to capture
// (§VI-B, Fig. 9).
type Phase struct {
	// Frac is this phase's share of the access stream (phases are
	// normalized over their sum).
	Frac float64
	// KindChange is the probability a store rewrites the line with a
	// new data class (compressibility churn driving overflows).
	KindChange float64
	// ZeroStore is the probability a kind-changing store writes
	// zeros (driving underflows/free pages).
	ZeroStore float64
	// StoreKind picks the class written by kind-changing stores; a
	// zero Mix means "use the flavor mix".
	StoreKind datagen.Mix
}

// Profile is one benchmark's memory personality.
type Profile struct {
	Name string

	// TargetRatio is the compression ratio the benchmark's image
	// should exhibit under BPC + LinePack with legacy bins (the
	// Fig. 2 calibration anchor).
	TargetRatio float64

	Flavor Flavor

	// FootprintPages is the (scaled) resident footprint in 4 KB pages.
	FootprintPages int

	// Locality: HotProb of accesses go to the hot HotFraction of
	// pages, with Zipf(theta) popularity inside the hot set.
	HotFraction float64
	HotProb     float64
	ZipfTheta   float64

	// SpatialRun is the mean sequential run length in lines.
	SpatialRun float64

	// WriteFrac is the store fraction of memory operations.
	WriteFrac float64

	// InstrPerOp is the mean number of non-memory instructions between
	// memory operations (inverse memory intensity).
	InstrPerOp float64

	// Store behaviour outside explicit phases.
	KindChange float64
	ZeroStore  float64

	Phases []Phase
}

// Validate checks profile invariants.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: unnamed profile")
	case p.FootprintPages <= 0:
		return fmt.Errorf("workload %s: non-positive footprint", p.Name)
	case p.TargetRatio < 1:
		return fmt.Errorf("workload %s: ratio %v < 1", p.Name, p.TargetRatio)
	case p.HotFraction <= 0 || p.HotFraction > 1:
		return fmt.Errorf("workload %s: hot fraction %v", p.Name, p.HotFraction)
	case p.HotProb < 0 || p.HotProb > 1:
		return fmt.Errorf("workload %s: hot prob %v", p.Name, p.HotProb)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("workload %s: write frac %v", p.Name, p.WriteFrac)
	case p.InstrPerOp <= 0:
		return fmt.Errorf("workload %s: instr/op %v", p.Name, p.InstrPerOp)
	}
	return nil
}

// minScaledPages is the footprint floor Scale enforces: below ~16
// pages the hot/cold locality structure degenerates.
const minScaledPages = 16

// Scale returns p with its footprint divided by scale (the experiment
// runners' speed knob), floored at minScaledPages. A scale <= 1 is the
// identity. Both the cycle simulator and the fleet simulator derive
// their run footprints through this one function so a given
// (profile, scale) pair means the same pages everywhere.
func Scale(p Profile, scale int) Profile {
	if scale > 1 {
		p.FootprintPages /= scale
		if p.FootprintPages < minScaledPages {
			p.FootprintPages = minScaledPages
		}
	}
	return p
}

// PageMix derives the full page-kind distribution (including zero
// pages) that hits the profile's target compression ratio, solved from
// the measured compressibility of the non-zero flavor mix (binned BPC,
// legacy bins — the Fig. 2 configuration). If the flavor compresses
// better than the target (its mean binned size is below 64/ratio),
// incompressible pages are blended in instead of zeros.
func (p *Profile) PageMix() datagen.Mix {
	nz := p.Flavor.mix() // panics on an unknown flavor
	b := flavorBinnedSizes()[p.Flavor]
	want := 64.0 / p.TargetRatio
	out := nz.Normalized()
	switch {
	case b > want:
		// Dilute with zero pages: (1-z)*b = want.
		zeroFrac := 1 - want/b
		for k := range out {
			out[k] *= 1 - zeroFrac
		}
		out[datagen.Zero] += zeroFrac
	case b < want:
		// Stiffen with incompressible pages: (1-x)*b + 64x = want.
		x := (want - b) / (64 - b)
		for k := range out {
			out[k] *= 1 - x
		}
		out[datagen.Random] += x
	}
	return out
}

// flavorBinnedSizes holds every flavor's measured mean binned size,
// computed once per process: it depends on the flavor alone.
var flavorBinnedSizes = sync.OnceValue(func() (sizes [MediaFlavor + 1]float64) {
	for f := range sizes {
		sizes[f] = measureBinnedSize(Flavor(f).mix())
	}
	return sizes
})

// measureBinnedSize samples the mean binned BPC size of a mix.
// Deterministic: a fixed internal seed.
func measureBinnedSize(m datagen.Mix) float64 {
	r := rng.New(0xCA11B8A7E)
	codec := compress.BPC{}
	const n = 400
	total := 0
	var line [compress.LineSize]byte
	for i := 0; i < n; i++ {
		datagen.FillLine(r, m.Pick(r), line[:])
		total += compress.LegacyBins.Fit(compress.SizeOnly(codec, line[:]))
	}
	return float64(total) / n
}
