// Package datagen synthesizes 64-byte cache-line values with the data
// patterns that dominate real application memory: zeros, counters,
// small integers, repeated values, smooth floating-point arrays,
// pointers, text, and incompressible noise.
//
// The Compresso reproduction has no SPEC CPU2006 memory images, so
// every simulated page is filled by these generators. The patterns are
// chosen so that the compression codecs in internal/compress behave on
// them the way they behave on the corresponding real data: BPC excels
// on counters and smooth numeric arrays, BDI on pointer-dense lines,
// nothing compresses text or random noise at 64 B granularity.
// Workload profiles (internal/workload) combine these kinds in
// per-benchmark proportions calibrated against the paper's Fig. 2.
package datagen

import (
	"encoding/binary"
	"fmt"
	"math"

	"compresso/internal/compress"
	"compresso/internal/rng"
)

// Kind identifies a data-value pattern.
type Kind int

// The supported patterns.
const (
	// Zero is an all-zero line (freshly allocated or zeroed memory).
	Zero Kind = iota
	// Seq is an arithmetic sequence of 32-bit values (loop counters,
	// index arrays, row pointers). Compresses extremely well under BPC.
	Seq
	// SmallInt is independent small integers (counts, enum fields,
	// RGB-like payloads). Compresses moderately everywhere.
	SmallInt
	// Repeated is a single 64-bit value repeated (memset patterns,
	// fill colors). Tiny under BDI and BPC.
	Repeated
	// SmoothFloat is a float32 array whose neighbors differ slightly
	// (physical fields, signal data). Good for BPC, poor for BDI.
	SmoothFloat
	// Pointer is 64-bit pointers into a shared region with random low
	// bits (linked structures). Good for BDI, mediocre for BPC.
	Pointer
	// Text is printable ASCII. Barely compressible at 64 B granularity.
	Text
	// Random is incompressible noise (encrypted/compressed payloads,
	// hashes).
	Random

	// NKinds is the number of pattern kinds.
	NKinds
)

var kindNames = [NKinds]string{"zero", "seq", "smallint", "repeated", "smoothfloat", "pointer", "text", "random"}

// String returns the kind's name.
func (k Kind) String() string {
	if k < 0 || k >= NKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// FillLine overwrites the 64-byte dst with fresh data of the given
// kind, consuming randomness from r.
func FillLine(r *rng.Rand, k Kind, dst []byte) {
	if len(dst) != compress.LineSize {
		panic(fmt.Sprintf("datagen: line length %d", len(dst)))
	}
	switch k {
	case Zero:
		for i := range dst {
			dst[i] = 0
		}
	case Seq:
		start := uint32(r.Intn(1 << 24))
		stride := uint32([]int{1, 1, 2, 4, 8, 16}[r.Intn(6)])
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(dst[i*4:], start+uint32(i)*stride)
		}
	case SmallInt:
		limit := []int{16, 256, 4096}[r.Intn(3)]
		for i := 0; i < 16; i++ {
			v := int32(r.Intn(limit))
			if r.Bool(0.2) {
				v = -v
			}
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
		}
	case Repeated:
		v := r.Uint64()
		if r.Bool(0.5) {
			// Word-repeated values are common (32-bit fills).
			w := uint64(r.Uint32())
			v = w | w<<32
		}
		for o := 0; o < compress.LineSize; o += 8 {
			binary.LittleEndian.PutUint64(dst[o:], v)
		}
	case SmoothFloat:
		v := r.Float64()*200 - 100
		step := r.NormFloat64() * 0.01
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(float32(v)))
			v *= 1 + step
			v += step
		}
	case Pointer:
		base := (uint64(0x7f)<<40 | uint64(r.Uint32())<<12) &^ 0xfff
		for i := 0; i < 8; i++ {
			p := base + uint64(r.Intn(1<<12))
			if r.Bool(0.15) {
				p = 0 // null pointers are frequent in linked structures
			}
			binary.LittleEndian.PutUint64(dst[i*8:], p)
		}
	case Text:
		const alphabet = " etaoinshrdlucmfwypvbgkjqxz,.ETAOIN0123456789"
		for i := range dst {
			dst[i] = alphabet[r.Intn(len(alphabet))]
		}
	case Random:
		for o := 0; o < compress.LineSize; o += 8 {
			binary.LittleEndian.PutUint64(dst[o:], r.Uint64())
		}
	default:
		panic(fmt.Sprintf("datagen: unknown kind %d", int(k)))
	}
}

// Line allocates and fills a fresh line of the given kind.
func Line(r *rng.Rand, k Kind) []byte {
	l := make([]byte, compress.LineSize)
	FillLine(r, k, l)
	return l
}

// Mix is a weighting over kinds; weights need not sum to 1.
type Mix [NKinds]float64

// Pick draws a kind according to the mix's weights. It panics if all
// weights are zero.
func (m Mix) Pick(r *rng.Rand) Kind {
	total := 0.0
	for _, w := range m {
		if w < 0 {
			panic("datagen: negative mix weight")
		}
		total += w
	}
	if total == 0 {
		panic("datagen: empty mix")
	}
	u := r.Float64() * total
	for k, w := range m {
		u -= w
		if u < 0 {
			return Kind(k)
		}
	}
	return NKinds - 1
}

// Normalized returns the mix scaled to sum to 1.
func (m Mix) Normalized() Mix {
	total := 0.0
	for _, w := range m {
		total += w
	}
	if total == 0 {
		return m
	}
	var out Mix
	for k, w := range m {
		out[k] = w / total
	}
	return out
}

// Page is a 4 KB page's worth of line values.
type Page [][]byte

// LinesPerPage is the number of cache lines in a 4 KB page.
const LinesPerPage = 4096 / compress.LineSize

// GeneratePageInto fills buf (one 4 KB page) with a page dominated by
// the given kind, without allocating. Real pages are mostly homogeneous
// (one array, one node pool); heterogeneity is injected per line with
// probability noise using the noiseMix. This is the kernel behind
// workload.Image's single flat backing array.
func GeneratePageInto(r *rng.Rand, k Kind, noise float64, noiseMix Mix, buf []byte) {
	if len(buf) != LinesPerPage*compress.LineSize {
		panic(fmt.Sprintf("datagen: page buffer length %d", len(buf)))
	}
	for i := 0; i < LinesPerPage; i++ {
		kind := k
		if noise > 0 && r.Bool(noise) {
			kind = noiseMix.Pick(r)
		}
		FillLine(r, kind, buf[i*compress.LineSize:(i+1)*compress.LineSize])
	}
}

// Perturb applies a small same-pattern update: every 32-bit word is
// incremented by one small common constant, the way a vector-scalar
// update or timestamp refresh touches an array. Preserving the
// word-to-word deltas keeps the line's compressibility class stable,
// which is what distinguishes these stores from the kind-changing
// writes that cause overflows.
func Perturb(r *rng.Rand, line []byte) {
	c := uint32(r.Intn(7) + 1)
	for i := 0; i < 16; i++ {
		v := binary.LittleEndian.Uint32(line[i*4:])
		binary.LittleEndian.PutUint32(line[i*4:], v+c)
	}
}
