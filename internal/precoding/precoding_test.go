package precoding

import (
	"math"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// randomSymbols draws one user-data symbol vector from the constellation.
func randomSymbols(src *rng.Source, mod modulation.Modulation, nu int) []complex128 {
	return mod.MapGrayVector(src.Bits(nu * mod.BitsPerSymbol()))
}

// perturbationFromSpins maps an Ising spin assignment of a VP problem back
// to the perturbation vector it encodes.
func perturbationFromSpins(perturbMod modulation.Modulation, spins []int8) []complex128 {
	return Perturbation(reduction.BitsToSymbols(perturbMod, qubo.BitsFromSpins(spins)))
}

func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func TestPerturbModulation(t *testing.T) {
	cases := map[int]modulation.Modulation{1: modulation.QPSK, 2: modulation.QAM16, 3: modulation.QAM64}
	for bits, want := range cases {
		got, err := PerturbModulation(bits)
		if err != nil || got != want {
			t.Fatalf("PerturbModulation(%d) = %v, %v", bits, got, err)
		}
	}
	for _, bits := range []int{-1, 4, 7} {
		if _, err := PerturbModulation(bits); err == nil {
			t.Fatalf("PerturbModulation(%d) accepted", bits)
		}
	}
}

// TestPerturbationAlphabet proves the affine PAM map enumerates exactly the
// b-bit two's-complement alphabet {−2^{b−1}, …, 2^{b−1}−1} per dimension,
// zero included.
func TestPerturbationAlphabet(t *testing.T) {
	for bits := 1; bits <= MaxPerturbBits; bits++ {
		pam, err := PerturbModulation(bits)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := -(1 << (bits - 1)), 1<<(bits-1)-1
		seen := make(map[complex128]bool)
		for _, c := range pam.Constellation() {
			v := Perturbation([]complex128{c})[0]
			re, im := real(v), imag(v)
			if re != math.Trunc(re) || im != math.Trunc(im) {
				t.Fatalf("bits=%d: non-integer perturbation %v", bits, v)
			}
			if int(re) < lo || int(re) > hi || int(im) < lo || int(im) > hi {
				t.Fatalf("bits=%d: perturbation %v outside [%d,%d]", bits, v, lo, hi)
			}
			seen[v] = true
		}
		if len(seen) != pam.ConstellationSize() {
			t.Fatalf("bits=%d: alphabet has %d distinct values, want %d", bits, len(seen), pam.ConstellationSize())
		}
		if !seen[0] {
			t.Fatalf("bits=%d: alphabet misses zero", bits)
		}
	}
}

// TestIsingEnergyIsTransmitPower is the definitional property: the Ising
// energy of any assignment equals the VP objective ‖P(s+τv)‖² of the
// perturbation that assignment encodes.
func TestIsingEnergyIsTransmitPower(t *testing.T) {
	src := rng.New(501)
	for _, tc := range []struct {
		mod    modulation.Modulation
		nu, nt int
		bits   int
	}{
		{modulation.BPSK, 3, 4, 1},
		{modulation.QPSK, 4, 4, 1},
		{modulation.QPSK, 3, 5, 2},
		{modulation.QAM16, 2, 3, 1},
		{modulation.QAM16, 2, 2, 3},
	} {
		h := channel.Rayleigh{}.Generate(src, tc.nu, tc.nt)
		prog, err := Compile(tc.mod, h, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			s := randomSymbols(src, tc.mod, tc.nu)
			ising := prog.Ising(s)
			for draw := 0; draw < 16; draw++ {
				spins := make([]int8, ising.N)
				for i := range spins {
					spins[i] = int8(2*src.Intn(2) - 1)
				}
				v := perturbationFromSpins(prog.PerturbMod(), spins)
				want := prog.Gamma(s, v)
				got := ising.Energy(spins)
				if !relClose(got, want, 1e-9) {
					t.Fatalf("%v nu=%d bits=%d: energy %g != transmit power %g",
						tc.mod, tc.nu, tc.bits, got, want)
				}
			}
		}
	}
}

// TestCompiledBitIdenticalToOneShot proves the compile+bias path produces
// bit-for-bit the same Ising program as a fresh one-shot reduction for every
// symbol vector — i.e. the shared-coupling execute phase leaves no residue
// across calls and the compile is deterministic.
func TestCompiledBitIdenticalToOneShot(t *testing.T) {
	src := rng.New(502)
	for _, tc := range []struct {
		mod    modulation.Modulation
		nu, nt int
		bits   int
	}{
		{modulation.BPSK, 4, 6, 1},
		{modulation.QPSK, 5, 5, 1},
		{modulation.QAM16, 3, 4, 2},
		{modulation.QPSK, 2, 2, 3},
	} {
		h := channel.RandomPhase{}.Generate(src, tc.nu, tc.nt)
		prog, err := Compile(tc.mod, h, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately interleave several symbol vectors through the SAME
		// compiled program before comparing, so coupling-storage reuse across
		// Biases calls is exercised.
		syms := make([][]complex128, 6)
		for i := range syms {
			syms[i] = randomSymbols(src, tc.mod, tc.nu)
		}
		for _, s := range syms {
			prog.Ising(s)
		}
		for _, s := range syms {
			got := prog.Ising(s)
			want, err := Reduce(tc.mod, h, tc.bits, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N {
				t.Fatalf("size mismatch: %d vs %d", got.N, want.N)
			}
			if math.Float64bits(got.Offset) != math.Float64bits(want.Offset) {
				t.Fatalf("offset differs: %x vs %x", got.Offset, want.Offset)
			}
			for i := 0; i < got.N; i++ {
				if math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
					t.Fatalf("field %d differs: %g vs %g", i, got.H[i], want.H[i])
				}
				for j := i + 1; j < got.N; j++ {
					if math.Float64bits(got.GetJ(i, j)) != math.Float64bits(want.GetJ(i, j)) {
						t.Fatalf("coupling (%d,%d) differs: %g vs %g", i, j, got.GetJ(i, j), want.GetJ(i, j))
					}
				}
			}
		}
	}
}

// TestBruteForceMatchesExhaustiveSearch proves the reduction's ground state
// is the exhaustive VP optimum: minimizing the Ising objective over all spin
// assignments equals minimizing ‖P(s+τv)‖² over the whole perturbation
// alphabet.
func TestBruteForceMatchesExhaustiveSearch(t *testing.T) {
	src := rng.New(503)
	for _, tc := range []struct {
		mod  modulation.Modulation
		nu   int
		bits int
	}{
		{modulation.QPSK, 3, 1},
		{modulation.QAM16, 2, 1},
		{modulation.BPSK, 4, 1},
		{modulation.QPSK, 2, 2},
	} {
		h := channel.Rayleigh{}.Generate(src, tc.nu, tc.nu+1)
		prog, err := Compile(tc.mod, h, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		s := randomSymbols(src, tc.mod, tc.nu)

		// Exhaustive search over the alphabet.
		pam := prog.PerturbMod()
		points := pam.Constellation()
		best := math.Inf(1)
		v := make([]complex128, tc.nu)
		var walk func(k int)
		walk = func(k int) {
			if k == tc.nu {
				perturb := Perturbation(v)
				if g := prog.Gamma(s, perturb); g < best {
					best = g
				}
				return
			}
			for _, c := range points {
				v[k] = c
				walk(k + 1)
			}
		}
		walk(0)

		_, ground := qubo.BruteForceIsing(prog.Ising(s))
		if !relClose(ground, best, 1e-9) {
			t.Fatalf("%v nu=%d bits=%d: Ising ground %g != exhaustive VP optimum %g",
				tc.mod, tc.nu, tc.bits, ground, best)
		}
		if zf := prog.ZFGamma(s); best > zf*(1+1e-12) {
			t.Fatalf("VP optimum %g worse than no-perturbation baseline %g", best, zf)
		}
	}
}

// TestModTauRecovery proves the receiver-side modulo-τ operation strips any
// alphabet perturbation exactly on a noise-free link.
func TestModTauRecovery(t *testing.T) {
	src := rng.New(504)
	for _, mod := range modulation.All() {
		tau := Tau(mod)
		for bits := 1; bits <= MaxPerturbBits; bits++ {
			pam, err := PerturbModulation(bits)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 64; trial++ {
				s := randomSymbols(src, mod, 1)[0]
				vpam := pam.Constellation()[src.Intn(pam.ConstellationSize())]
				v := Perturbation([]complex128{vpam})[0]
				got := Receive(mod, tau, []complex128{s + complex(tau, 0)*v})[0]
				if got != s {
					t.Fatalf("%v bits=%d: recovered %v, sent %v (v=%v)", mod, bits, got, s, v)
				}
			}
		}
	}
}

func TestCompileValidation(t *testing.T) {
	src := rng.New(505)
	wide := channel.Rayleigh{}.Generate(src, 4, 2) // more users than antennas
	if _, err := Compile(modulation.QPSK, wide, 1); err == nil {
		t.Fatal("accepted more users than antennas")
	}
	ok := channel.Rayleigh{}.Generate(src, 2, 4)
	if _, err := Compile(modulation.QPSK, ok, 9); err == nil {
		t.Fatal("accepted out-of-range perturbation bits")
	}
	singular := linalg.NewMat(2, 2) // rank-deficient
	if _, err := Compile(modulation.QPSK, singular, 1); err == nil {
		t.Fatal("accepted singular channel")
	}
	if _, err := Compile(modulation.Modulation(99), ok, 1); err == nil {
		t.Fatal("accepted unknown modulation")
	}
	prog, err := Compile(modulation.QPSK, ok, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prog.PerturbBits() != DefaultPerturbBits {
		t.Fatalf("default bits = %d", prog.PerturbBits())
	}
	if prog.LogicalSpins() != 2*2*DefaultPerturbBits {
		t.Fatalf("logical spins = %d", prog.LogicalSpins())
	}
	if w := prog.Window(); w.Key() == 0 || w.Mod() != prog.PerturbMod() || w.Channel() != prog.VPChannel() {
		t.Fatal("the program's window is not its VP channel's")
	}
}

// TestRightInverseProperty pins the precoder math: H·P = I and the
// VP channel is its −τ/2 scaling.
func TestRightInverseProperty(t *testing.T) {
	src := rng.New(506)
	h := channel.Rayleigh{}.Generate(src, 3, 5)
	prog, err := Compile(modulation.QAM16, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod := linalg.Mul(h, prog.Inverse())
	if d := linalg.MaxAbsDiff(prod, linalg.Identity(3)); d > 1e-9 {
		t.Fatalf("H·P deviates from identity by %g", d)
	}
	if prog.Tau() != 8 { // 16-QAM: L = 4 levels per dimension
		t.Fatalf("tau = %g", prog.Tau())
	}
	hvp := prog.VPChannel()
	for i := range hvp.Data {
		if hvp.Data[i] != complex(-prog.Tau()/2, 0)*prog.Inverse().Data[i] {
			t.Fatal("VP channel is not −τ/2 · P")
		}
	}
}
