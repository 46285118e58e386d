package anneal

// Metamorphic properties of the sweep engines, asserted bit-exactly on all
// three paths (scalar twin, packed multi-spin, parallel tempering):
//
//   - Gauge invariance. Flipping spin i while negating h_i and row J_i maps
//     every trajectory onto a mirrored trajectory with identical energies:
//     the doubled field λ_i negates, so dE = −σ·λ and every accept decision
//     is unchanged bit for bit, and no other spin notices (its λ picks up
//     (−J)(−σ_i) = Jσ_i). Sampled energies are therefore bitwise invariant
//     and final states differ exactly at spin i.
//   - Scaling covariance. Scaling (h, J, offset) by a power of two c while
//     scaling every β by 1/c leaves all products β·dE and exchange arguments
//     (β_a−β_b)(E_a−E_b) bit-identical (IEEE exponent arithmetic cancels
//     exactly), so trajectories and argmin states are invariant and energies
//     scale by exactly c.
//
// Power-of-two scale factors make the covariance exact rather than
// approximate — the strongest form of the "uniform scaling leaves the argmin
// invariant" property, which holds approximately for any positive scale.

import (
	"math"
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// gaugeSparse returns prog with the gauge transform applied at spin i:
// h_i and every coupling touching i negated.
func gaugeSparse(prog *qubo.Sparse, i int) *qubo.Sparse {
	g := prog.Clone()
	g.H[i] = -g.H[i]
	for e := range g.Edges {
		if g.Edges[e].I == i || g.Edges[e].J == i {
			g.Edges[e].W = -g.Edges[e].W
		}
	}
	return g
}

// scaleSparse returns prog with (h, J, offset) scaled by c.
func scaleSparse(prog *qubo.Sparse, c float64) *qubo.Sparse {
	s := prog.Clone()
	for i := range s.H {
		s.H[i] *= c
	}
	for e := range s.Edges {
		s.Edges[e].W *= c
	}
	s.Offset *= c
	return s
}

// flipAt returns spins with index i negated.
func flipAt(spins []int8, i int) []int8 {
	out := append([]int8(nil), spins...)
	out[i] = -out[i]
	return out
}

// randomSpins draws a uniform ±1 configuration.
func randomSpins(src *rng.Source, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		if src.Bool() {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// metamorphicPrograms is the property-test corpus (kept smaller than the
// differential corpus — each program runs six engine configurations).
func metamorphicPrograms(t testing.TB) map[string]*qubo.Sparse {
	return map[string]*qubo.Sparse{
		"rand":  gnpSparse(rng.New(31), 30, 0.3),
		"qpsk":  modulationProgram(t, modulation.QPSK, 6, 104),
		"dense": gnpSparse(rng.New(33), 20, 1.0),
	}
}

// TestGaugeInvarianceScalarAndPacked runs base and gauge-transformed
// programs from mirrored initial states and asserts bitwise-identical
// energy trajectories on both sweep paths.
func TestGaugeInvarianceScalarAndPacked(t *testing.T) {
	const gauged = 4
	const R = 5
	sched := MSSchedule{BetaInitial: 0.4, BetaFinal: 6, Sweeps: 12}
	for name, prog := range metamorphicPrograms(t) {
		t.Run(name, func(t *testing.T) {
			gp := gaugeSparse(prog, gauged)
			k1, err := NewMSKernel(prog)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := NewMSKernel(gp)
			if err != nil {
				t.Fatal(err)
			}
			inits := make([][]int8, R)
			flipped := make([][]int8, R)
			isrc := rng.New(71)
			for r := range inits {
				inits[r] = randomSpins(isrc, prog.N)
				flipped[r] = flipAt(inits[r], gauged)
			}
			b1, err := k1.NewBlock(R, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			b2, err := k2.NewBlock(R, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			if err := b1.InitFrom(inits); err != nil {
				t.Fatal(err)
			}
			if err := b2.InitFrom(flipped); err != nil {
				t.Fatal(err)
			}
			t1 := k1.NewScalar(rng.New(19))
			t2 := k2.NewScalar(rng.New(19))
			if err := t1.InitFrom(inits[0]); err != nil {
				t.Fatal(err)
			}
			if err := t2.InitFrom(flipped[0]); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < sched.Sweeps; s++ {
				beta := sched.beta(s)
				b1.SetAllBeta(beta)
				b2.SetAllBeta(beta)
				b1.Sweep()
				b2.Sweep()
				for r := 0; r < R; r++ {
					if math.Float64bits(b1.Energy(r)) != math.Float64bits(b2.Energy(r)) {
						t.Fatalf("packed replica %d: gauge broke energy at sweep %d", r, s)
					}
				}
				t1.SetBeta(beta)
				t2.SetBeta(beta)
				t1.Sweep()
				t2.Sweep()
				if math.Float64bits(t1.Energy()) != math.Float64bits(t2.Energy()) {
					t.Fatalf("scalar: gauge broke energy at sweep %d", s)
				}
			}
			for r := 0; r < R; r++ {
				want := flipAt(b1.Spins(r), gauged)
				got := b2.Spins(r)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("packed replica %d: spin %d not mirrored", r, i)
					}
				}
			}
			want := flipAt(t1.Spins(), gauged)
			got := t2.Spins()
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("scalar: spin %d not mirrored", i)
				}
			}
		})
	}
}

// TestGaugeInvariancePT asserts the same property through the full
// parallel-tempering scheduler: exchange decisions depend only on energies,
// which the gauge leaves bitwise intact, so swap counts, sampled energies
// and the best energy are invariant and all states mirror at the gauged spin.
func TestGaugeInvariancePT(t *testing.T) {
	const gauged = 7
	prog := gnpSparse(rng.New(35), 26, 0.35)
	gp := gaugeSparse(prog, gauged)
	init := randomSpins(rng.New(72), prog.N)
	params := PTParams{Rungs: 8, Ladders: 2, Sweeps: 30, SwapEvery: 3}
	p1, p2 := params, params
	p1.InitSpins = init
	p2.InitSpins = flipAt(init, gauged)
	r1, err := RunPT(prog, p1, 1, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPT(gp, p2, 1, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.BestEnergy) != math.Float64bits(r2.BestEnergy) {
		t.Fatalf("gauge broke PT best energy: %v vs %v", r1.BestEnergy, r2.BestEnergy)
	}
	if r1.Swaps != r2.Swaps || r1.SwapAttempts != r2.SwapAttempts {
		t.Fatalf("gauge changed PT exchange behavior: %d/%d vs %d/%d",
			r1.Swaps, r1.SwapAttempts, r2.Swaps, r2.SwapAttempts)
	}
	for l := range r1.Energies {
		if math.Float64bits(r1.Energies[l]) != math.Float64bits(r2.Energies[l]) {
			t.Fatalf("ladder %d: gauge broke cold-rung energy", l)
		}
	}
	want := flipAt(r1.BestSpins, gauged)
	for i := range want {
		if want[i] != r2.BestSpins[i] {
			t.Fatalf("PT best state not mirrored at spin %d", i)
		}
	}
}

// TestScalingCovarianceScalarAndPacked runs base and ×c programs (c a power
// of two) under β and β/c schedules from identical random initial states:
// trajectories must match bit for bit with energies scaled by exactly c.
func TestScalingCovarianceScalarAndPacked(t *testing.T) {
	const c = 4.0
	const R = 6
	base := MSSchedule{BetaInitial: 0.4, BetaFinal: 6, Sweeps: 12}
	scaled := MSSchedule{BetaInitial: base.BetaInitial / c, BetaFinal: base.BetaFinal / c, Sweeps: base.Sweeps}
	for name, prog := range metamorphicPrograms(t) {
		t.Run(name, func(t *testing.T) {
			sp := scaleSparse(prog, c)
			k1, err := NewMSKernel(prog)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := NewMSKernel(sp)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := k1.NewBlock(R, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			b2, err := k2.NewBlock(R, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			b1.Init()
			b2.Init()
			t1 := k1.NewScalar(rng.New(29))
			t2 := k2.NewScalar(rng.New(29))
			t1.Init()
			t2.Init()
			for s := 0; s < base.Sweeps; s++ {
				b1.SetAllBeta(base.beta(s))
				b2.SetAllBeta(scaled.beta(s))
				b1.Sweep()
				b2.Sweep()
				for r := 0; r < R; r++ {
					if math.Float64bits(c*b1.Energy(r)) != math.Float64bits(b2.Energy(r)) {
						t.Fatalf("packed replica %d: scaling broke energy at sweep %d: %v vs %v",
							r, s, c*b1.Energy(r), b2.Energy(r))
					}
				}
				t1.SetBeta(base.beta(s))
				t2.SetBeta(scaled.beta(s))
				t1.Sweep()
				t2.Sweep()
				if math.Float64bits(c*t1.Energy()) != math.Float64bits(t2.Energy()) {
					t.Fatalf("scalar: scaling broke energy at sweep %d", s)
				}
			}
			// Argmin (indeed every sampled state) is scale-invariant.
			for r := 0; r < R; r++ {
				s1, s2 := b1.Spins(r), b2.Spins(r)
				for i := range s1 {
					if s1[i] != s2[i] {
						t.Fatalf("packed replica %d: spin %d differs under scaling", r, i)
					}
				}
			}
		})
	}
}

// TestScalingCovariancePT asserts scaling covariance through parallel
// tempering: with the β ladder scaled by 1/c the exchange arguments are
// bit-identical, so swap sequences and all states are invariant and every
// reported energy scales by exactly c.
func TestScalingCovariancePT(t *testing.T) {
	const c = 8.0
	prog := gnpSparse(rng.New(37), 24, 0.4)
	sp := scaleSparse(prog, c)
	base := PTParams{Rungs: 8, Ladders: 2, Sweeps: 24, SwapEvery: 2, BetaMin: 0.3, BetaMax: 6}
	scaled := base
	scaled.BetaMin, scaled.BetaMax = base.BetaMin/c, base.BetaMax/c
	r1, err := RunPT(prog, base, 1, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPT(sp, scaled, 1, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(c*r1.BestEnergy) != math.Float64bits(r2.BestEnergy) {
		t.Fatalf("scaling broke PT best energy: %v vs %v", c*r1.BestEnergy, r2.BestEnergy)
	}
	if r1.Swaps != r2.Swaps || r1.SwapAttempts != r2.SwapAttempts {
		t.Fatalf("scaling changed PT exchange behavior")
	}
	for l := range r1.Energies {
		if math.Float64bits(c*r1.Energies[l]) != math.Float64bits(r2.Energies[l]) {
			t.Fatalf("ladder %d: scaling broke cold-rung energy", l)
		}
	}
	for i := range r1.BestSpins {
		if r1.BestSpins[i] != r2.BestSpins[i] {
			t.Fatalf("PT argmin changed under scaling at spin %d", i)
		}
	}
}

// TestPTFindsGroundStateSmall checks PT against the exhaustive argmin on a
// brute-forceable instance — the end-to-end correctness anchor under the
// bitwise properties above.
func TestPTFindsGroundStateSmall(t *testing.T) {
	prog := gnpSparse(rng.New(41), 12, 0.6)
	best := math.Inf(1)
	spins := make([]int8, prog.N)
	for m := 0; m < 1<<prog.N; m++ {
		for i := range spins {
			if m&(1<<i) != 0 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		if e := prog.Energy(spins); e < best {
			best = e
		}
	}
	res, err := RunPT(prog, PTParams{Rungs: 12, Ladders: 2, Sweeps: 200, SwapEvery: 2}, 1, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BestEnergy-best) > 1e-9*(1+math.Abs(best)) {
		t.Fatalf("PT best energy %v, exhaustive ground state %v", res.BestEnergy, best)
	}
	if e := prog.Energy(res.BestSpins); math.Abs(e-res.BestEnergy) > 1e-9*(1+math.Abs(e)) {
		t.Fatalf("PT best spins evaluate to %v, reported %v", e, res.BestEnergy)
	}
}
