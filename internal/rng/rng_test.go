package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestNearbySeedsDecorrelated(t *testing.T) {
	// SplitMix finalizer: consecutive seeds must not produce correlated
	// first draws.
	seen := make(map[uint64]bool)
	for seed := int64(0); seed < 64; seed++ {
		v := New(seed).Uint64()
		if seen[v] {
			t.Fatal("collision across nearby seeds")
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	kids := parent.SplitN(4)
	if len(kids) != 4 {
		t.Fatalf("SplitN returned %d sources", len(kids))
	}
	streams := make(map[uint64]bool)
	for _, k := range kids {
		v := k.Uint64()
		if streams[v] {
			t.Fatal("child streams collide")
		}
		streams[v] = true
	}
}

func TestGaussMoments(t *testing.T) {
	src := New(2)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := src.Gauss(3, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean %g, want 3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("variance %g, want 4", variance)
	}
}

func TestComplexNormUnitPower(t *testing.T) {
	src := New(3)
	const n = 100000
	var p, re float64
	for i := 0; i < n; i++ {
		z := src.ComplexNorm()
		p += real(z)*real(z) + imag(z)*imag(z)
		re += real(z)
	}
	if math.Abs(p/n-1) > 0.02 {
		t.Fatalf("E|z|² = %g, want 1", p/n)
	}
	if math.Abs(re/n) > 0.02 {
		t.Fatalf("E[Re z] = %g, want 0", re/n)
	}
}

func TestUnitPhaseOnCircle(t *testing.T) {
	src := New(4)
	var sum complex128
	for i := 0; i < 10000; i++ {
		z := src.UnitPhase()
		m := real(z)*real(z) + imag(z)*imag(z)
		if math.Abs(m-1) > 1e-12 {
			t.Fatalf("|z|² = %g", m)
		}
		sum += z
	}
	// Uniform phase: the mean must be near the origin.
	if math.Hypot(real(sum), imag(sum)) > 300 {
		t.Fatal("phases not uniform")
	}
}

func TestBits(t *testing.T) {
	src := New(5)
	bits := src.Bits(10000)
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatal("non-binary bit")
		}
		ones += int(b)
	}
	if ones < 4700 || ones > 5300 {
		t.Fatalf("ones = %d/10000, want ≈5000", ones)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(6)
	p := src.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(7)
	for i := 0; i < 1000; i++ {
		if v := src.Intn(3); v < 0 || v > 2 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	src := New(8)
	trues := 0
	for i := 0; i < 10000; i++ {
		if src.Bool() {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Fatalf("trues = %d/10000", trues)
	}
}

// Reseed must restart a used source on exactly the stream New yields — the
// contract that lets pooled scratch keep its generators across runs — and
// SplitInto must hand a caller-owned child the stream Split would allocate.
func TestReseedMatchesNew(t *testing.T) {
	draw := func(s *Source) [8]uint64 {
		return [8]uint64{
			s.Uint64(), math.Float64bits(s.Norm()), uint64(s.Intn(1000)), boolBit(s.Bool()),
			math.Float64bits(s.Gauss(1, 2)), s.Uint64(), uint64(s.Intn(7)), math.Float64bits(s.Norm()),
		}
	}
	reused := new(Source) // zero value: the first Reseed allocates the generator
	for _, seed := range []int64{0, 1, -5, 42, math.MaxInt64} {
		reused.Reseed(seed)
		if got, want := draw(reused), draw(New(seed)); got != want {
			t.Fatalf("seed %d: Reseed stream %v, New stream %v", seed, got, want)
		}
	}
	a, b, child := New(9), New(9), New(123)
	child.Norm() // leave it mid-stream
	for i := 0; i < 3; i++ {
		a.SplitInto(child)
		if got, want := draw(child), draw(b.Split()); got != want {
			t.Fatalf("split %d: SplitInto stream %v, Split stream %v", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitInto and Split advance the parent differently")
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
