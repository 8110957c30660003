// Package rng provides a small, deterministic, splittable pseudo-random
// number generator for reproducible network simulations.
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; it is fast, has a 2^256-1 period, and passes the statistical test
// batteries relevant for simulation work.
//
// The key feature over math/rand is cheap stream derivation: every node,
// link and experiment repetition can own an independent generator derived
// deterministically from a root seed and a label, so adding a new consumer
// of randomness never perturbs the random sequence seen by existing ones.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive one Source per goroutine or simulated entity.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and stream derivation only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources created with
// the same seed produce identical sequences.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (r *Source) reseed(seed uint64) {
	state := seed
	r.s0 = splitMix64(&state)
	r.s1 = splitMix64(&state)
	r.s2 = splitMix64(&state)
	r.s3 = splitMix64(&state)
	// xoshiro256** must not be seeded with the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9

	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)

	return result
}

// Derive returns a new independent Source determined by this source's
// current state and the label. Derive does not advance the parent stream,
// so the derivation tree is stable: deriving "a" then "b" yields the same
// children as deriving "b" then "a".
func (r *Source) Derive(label string) *Source {
	child := r.derive(label)
	return &child
}

// DeriveIndexed returns a derived Source for (label, index) pairs, e.g. one
// stream per node. Equivalent to Derive(label+"/"+itoa(index)) but without
// string formatting on hot paths. It is Stream(label).At(index) on the
// heap; loops over many indices should hash the label once via Stream.
func (r *Source) DeriveIndexed(label string, index int) *Source {
	out := r.Stream(label).At(index)
	return &out
}

// derive is Derive by value.
func (r *Source) derive(label string) Source {
	// Mix the label through FNV-1a, then fold in the parent state through
	// SplitMix64 so that distinct parents give distinct children.
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	state := h
	seed := splitMix64(&state) ^ r.s0
	seed = seed ^ rotl(r.s2, 29)
	var child Source
	child.reseed(seed)
	return child
}

// Stream is the family of indexed Sources one label derives from a parent:
// Stream(label).At(i) equals *DeriveIndexed(label, i) bit for bit. Taking
// the Stream once hashes the label once, and At returns Sources by value,
// so a network can fill a []Source for all its nodes and edges without a
// heap allocation per stream.
type Stream struct {
	base Source // the parent's Derive(label) child
}

// Stream returns the indexed family of label. Like Derive it does not
// advance the parent.
func (r *Source) Stream(label string) Stream { return Stream{base: r.derive(label)} }

// At returns the stream's Source for index.
func (s Stream) At(index int) Source {
	// Jump the child by mixing in the index via SplitMix64 reseeding.
	state := s.base.s0 ^ (uint64(index)+1)*0x9e3779b97f4a7c15
	seed := splitMix64(&state) ^ s.base.s3
	var out Source
	out.reseed(seed)
	return out
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Lemire (2019): multiply-shift with rejection to remove bias.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		threshold := (-n) % n
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Bool returns true with probability p. Values of p outside [0, 1] are
// clamped (p <= 0 is always false, p >= 1 always true).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), via inverse-CDF sampling.
func (r *Source) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal value using the Marsaglia polar
// method. Only one value is produced per call; the spare is discarded to
// keep the Source state a pure function of the call count.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) as a slice, using the
// Fisher-Yates shuffle.
func (r *Source) Perm(n int) []int {
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
