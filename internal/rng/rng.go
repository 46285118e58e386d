// Package rng provides deterministic, splittable random number generation for
// the QuAMax simulator.
//
// Every stochastic component in the repository (channel draws, AWGN, ICE
// noise, annealer dynamics, tie-breaking) derives its randomness from an
// *rng.Source seeded explicitly, so that every experiment is reproducible
// from a single top-level seed. Sources can be split into independent child
// streams (Split), which is how per-anneal goroutines obtain non-overlapping
// randomness without locking.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with Gaussian and complex-valued
// helpers. It is NOT safe for concurrent use; use Split to derive
// independent sources for concurrent goroutines. The zero value is unseeded:
// Reseed (or SplitInto, as the child) it before drawing.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Reseed(seed)
	return s
}

// Reseed restarts s, in place, on exactly the stream New(seed) yields. The
// generator state (4.9 KB) is allocated on first use only, which is what lets
// pooled scratch keep its streams across runs.
func (s *Source) Reseed(seed int64) {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(mix(seed)))
		return
	}
	s.r.Seed(mix(seed))
}

// mix applies a SplitMix64-style finalizer so that nearby seeds (0,1,2,...)
// produce uncorrelated streams.
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// Split returns a new Source whose stream is independent of the receiver
// (and of other Split results) with overwhelming probability. The receiver
// advances by one draw.
func (s *Source) Split() *Source {
	child := new(Source)
	s.SplitInto(child)
	return child
}

// SplitInto is Split into a Source the caller already owns: child restarts on
// the stream Split would have returned.
func (s *Source) SplitInto(child *Source) {
	child.Reseed(int64(s.r.Uint64() & math.MaxInt64))
}

// SplitN returns n independent child sources.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.r.Intn(2) == 0 }

// Norm returns a standard normal draw (mean 0, variance 1).
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// Gauss returns a normal draw with the given mean and standard deviation.
func (s *Source) Gauss(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// ComplexNorm returns a circularly-symmetric complex Gaussian CN(0,1):
// real and imaginary parts are each N(0, 1/2) so E|z|^2 = 1.
func (s *Source) ComplexNorm() complex128 {
	const invSqrt2 = 0.7071067811865476
	return complex(s.r.NormFloat64()*invSqrt2, s.r.NormFloat64()*invSqrt2)
}

// UnitPhase returns e^{jθ} with θ uniform in [0, 2π): a unit-magnitude
// random-phase coefficient, the channel entry model of paper §5.3.
func (s *Source) UnitPhase() complex128 {
	theta := 2 * math.Pi * s.r.Float64()
	return complex(math.Cos(theta), math.Sin(theta))
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Bits returns n uniformly random bits as a byte slice of 0s and 1s.
func (s *Source) Bits(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if s.Bool() {
			b[i] = 1
		}
	}
	return b
}

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
