// Package stats provides the statistical substrate for the GUS estimator:
// a deterministic PRNG, normal-distribution helpers, Chebyshev bounds, and
// streaming moment accumulators used by the test and benchmark harnesses.
package stats

import "math"

// RNG is a SplitMix64 pseudo-random generator. It is deterministic across
// platforms and Go versions (unlike math/rand's unspecified sequences),
// which data generation and the test harnesses rely on. Query sampling
// draws nothing from it: every keep decision is a Hash64 of a seed and a
// row index, block index or tuple ID.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Rejection-free polar form would cache a value; the plain form is
	// simpler and statistically identical.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// HashID mixes a seed with a tuple ID into a uniform [0,1) value: the top
// 53 bits of Hash64. The same (seed, id) always yields the same value: this
// is the pseudo-random function of §7 that makes lineage-hash Bernoulli a
// GUS filter — a tuple eliminated from a base relation is eliminated from
// every result tuple it appears in.
func HashID(seed, id uint64) float64 {
	return float64(Hash64(seed, id)>>11) / (1 << 53)
}

// Hash64 mixes a seed with an ID into a pseudo-random 64-bit word, every
// bit of it uniform. Row-keyed Bernoulli reads its words as 64 rows' binary
// digits at once (sampling.Rule.AppendRows).
func Hash64(seed, id uint64) uint64 {
	z := seed ^ (id+0x9e3779b97f4a7c15)*0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	z = (z + seed) * 0x9e3779b97f4a7c15
	return z ^ z>>29
}
