// Package rng provides a small, deterministic pseudo-random number generator
// used throughout the repository.
//
// Experiments in this repo must be exactly reproducible across runs and
// platforms, and must be able to derive independent sub-streams (one per
// trial, one per column, ...) from a single master seed. math/rand's global
// state and Go-version-dependent behaviour make that awkward, so we implement
// PCG-XSH-RR 64/32 (O'Neill, 2014) plus a SplitMix64 seeder. Both are public
// domain algorithms; the implementation below is written from the published
// reference descriptions.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that correlated user seeds (0, 1, 2, ...) still
// produce decorrelated PCG streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a PCG-XSH-RR 64/32 generator. The zero value is not usable; create
// instances with New or Derive.
type RNG struct {
	state uint64
	inc   uint64 // stream selector; must be odd
}

// New returns a generator seeded from seed. Distinct seeds yield
// decorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream New(seed) returns, so a loop that
// derives one generator per item can reuse a single RNG.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	r.state = splitMix64(&sm)
	r.inc = splitMix64(&sm) | 1
	// Advance once so that state reflects inc.
	r.next()
}

// Derive returns a new independent generator deterministically derived from r
// and the given label. It does not perturb r's own sequence, so sub-streams
// may be created lazily without affecting reproducibility of the parent.
func (r *RNG) Derive(label uint64) *RNG {
	sm := r.state ^ (r.inc * 0x9e3779b97f4a7c15) ^ label
	d := &RNG{}
	d.state = splitMix64(&sm)
	d.inc = splitMix64(&sm) | 1
	d.next()
	return d
}

// next advances the PCG state and returns 32 output bits.
func (r *RNG) next() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return r.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.next())
	lo := uint64(r.next())
	return hi<<32 | lo
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling on the top bits: unbiased for all n.
	// threshold = 2^64 mod n computed as (-n) mod n.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with rate 1,
// via inverse-CDF transform.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal value using the Marsaglia polar
// method (no cached spare, to keep the generator state minimal).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, via
// Fisher-Yates. It panics if n < 0.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
