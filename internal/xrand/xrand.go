// Package xrand supplies the deterministic random machinery the benchmarks
// need: a seedable splitmix64 generator and a bounded zipfian sampler that
// accepts skew exponents below one.
//
// The standard library's rand.Zipf requires s > 1, but the paper's
// multiple-lock experiment (Figure 9) uses a zipfian distribution with
// alpha = 0.9 over eight locks, under which "the two most busy locks serve
// 34% and 18% of the requests". The inverse-CDF sampler here reproduces
// those proportions exactly.
package xrand

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny, fast, seedable PRNG (Steele et al., "Fast splittable
// pseudorandom number generators"). It is not safe for concurrent use; the
// harness gives each worker its own instance.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Seeded returns a generator seeded with seed, by value — for embedding in
// per-acquisition state (backoff.Spinner) where a heap allocation per wait
// would defeat the point of spinning.
func Seeded(seed uint64) SplitMix64 {
	return SplitMix64{state: seed}
}

// Next returns the next 64 random bits.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uintn returns a uniform value in [0, n). n must be positive.
func (s *SplitMix64) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uintn with n == 0")
	}
	// Lemire's multiply-shift mapping is fine here: bias is below 2^-32 for
	// every n the benchmarks use.
	hi, _ := bits.Mul64(s.Next(), n)
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *SplitMix64) Bool(p float64) bool {
	return s.Float64() < p
}

// Zipf samples from a zipfian distribution over {0, …, n-1} with exponent
// alpha: P(i) ∝ 1/(i+1)^alpha. Any alpha ≥ 0 is accepted (alpha = 0 is
// uniform). Sampling is inverse-CDF with binary search over a precomputed
// cumulative table, so construction is O(n) and sampling O(log n). A Zipf
// is only its table: each draw takes the caller's generator, so goroutines
// with their own generators may share one.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n items with the given exponent. n must be
// positive.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Next returns the next sample in [0, n), drawn from rng.
func (z *Zipf) Next(rng *SplitMix64) int {
	u := rng.Float64()
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

// Prob returns the probability of item i under the distribution.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
