// Package rng provides the deterministic pseudo-random number generation
// used by every stochastic component of the reproduction: suite
// generation, negative-probing mutation choices, and the simulated
// judge's perception noise.
//
// Two properties matter for the experiments:
//
//   - Determinism: a Source is fully determined by its seed, so every
//     table in EXPERIMENTS.md is reproducible bit-for-bit.
//   - Splittability: Split derives an independent child stream from a
//     label, so per-file randomness does not depend on the order in
//     which files are processed (important for the parallel pipeline,
//     whose workers must produce order-independent results).
//
// The generator is xoshiro256** seeded through SplitMix64, implemented
// locally so the stream is stable across Go releases (math/rand's
// default source changed in the past and math/rand/v2 is not seedable
// per-stream by string labels).
package rng

import "math/bits"

// Source is a deterministic, splittable random number generator.
// It is NOT safe for concurrent use; use Split to give each goroutine
// its own stream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, guaranteeing a
// well-mixed internal state even for small seeds.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitMix64(sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if src.s == [4]uint64{} {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// splitMix64 advances the SplitMix64 state and returns the next state
// and output value.
func splitMix64(state uint64) (next, out uint64) {
	return state + 0x9e3779b97f4a7c15, Mix(state)
}

// Mix is one SplitMix64 step as a pure function: x advanced by the
// golden gamma, then avalanched, so every input bit flips about half
// the output bits. It turns structured input (seeds, hashes XORed with
// IDs) into uniform 64-bit values.
func Mix(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17

	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)

	return result
}

// Split derives an independent child stream from a string label. Equal
// (parent seed, label) pairs always produce identical children, and
// distinct labels produce streams that are independent for all
// practical purposes. Split does not advance the parent stream, so the
// set of children is independent of the order they are created in.
func (r *Source) Split(label string) *Source {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	// Mix the parent's seed state in without mutating it.
	h ^= r.s[0] + bits.RotateLeft64(r.s[2], 13)
	return New(h)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= uint64(-bound)%bound {
			return int(hi)
		}
	}
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns a uniformly chosen element of choices. It panics if
// choices is empty.
func (r *Source) Pick(choices []string) string {
	return choices[r.Intn(len(choices))]
}

// Shuffle permutes the first n indices uniformly, calling swap as
// sort.Shuffle would (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n)
// in random order. It panics if k > n or k < 0.
func (r *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	return r.Perm(n)[:k]
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the polar (Marsaglia) method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// s < 1, so ln(s) < 0 and the radicand is positive.
		return u * sqrt(-2*ln(s)/s)
	}
}

// sqrt is a local Newton iteration so the package stays free of even
// math imports; inputs here are always positive and well-conditioned.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// ln computes the natural logarithm for x > 0 using range reduction to
// [1, 2) and an atanh-series expansion; accuracy is far beyond what the
// noise model needs.
func ln(x float64) float64 {
	if x <= 0 {
		panic("rng: ln of non-positive value")
	}
	// Range-reduce: x = m * 2^k with m in [1, 2).
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// ln(m) = 2*atanh((m-1)/(m+1)).
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}
