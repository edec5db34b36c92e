// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic choice in the reproduction (data values, access
// patterns, workload phases) is driven by these generators so that a
// given seed always produces bit-identical traces, memory images and
// therefore simulation results. The implementation is SplitMix64 for
// seeding and xoshiro256** for the stream, both public-domain
// algorithms by Blackman and Vigna.
package rng

import "math"

// SplitMix64 advances the SplitMix64 state x and returns the next
// output. It is primarily used to expand a single user seed into the
// larger xoshiro state.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64. Two
// generators with the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&x)
	}
	// xoshiro must not be seeded with an all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ZipfGen draws from a bounded Zipf distribution over [0, n) with
// exponent theta > 0. Larger theta skews harder toward 0. Sampling is
// inverse-CDF over a precomputed harmonic table (O(log n) per draw).
type ZipfGen struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over [0, n) with the given exponent.
// It panics if n <= 0 or theta <= 0.
func NewZipf(r *Rand, n int, theta float64) *ZipfGen {
	if n <= 0 || theta <= 0 {
		panic("rng: NewZipf with non-positive n or theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfGen{cdf: cdf, r: r}
}

// Next draws the next Zipf-distributed value in [0, len).
func (z *ZipfGen) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
