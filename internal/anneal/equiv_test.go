package anneal

// Differential harness: the packed multi-spin sweep must produce BIT-IDENTICAL
// per-replica trajectories, energies and spins to its scalar twin (MSScalar) —
// same arithmetic, same operation order, same rng stream discipline — across
// modulation-compiled programs (BPSK/QPSK/16-QAM reductions), a Chimera-
// embedded device program, and random CSR instances. Any divergence in the
// packed loop's bit tricks (sign-transfer accepts, grid-unit draws, XOR flip
// scatter) shows up here as a first-divergence sweep index. The device
// simulator's reads are held to the same twin: a read over its ICE-perturbed
// weights must be bit-identical to MSScalar on a kernel compiled from scratch
// from that perturbed program.

import (
	"fmt"
	"math"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// gnpSparse builds a random CSR instance: n spins, each pair coupled with
// probability density, Gaussian fields and couplings.
func gnpSparse(src *rng.Source, n int, density float64) *qubo.Sparse {
	p := qubo.NewSparse(n)
	for i := 0; i < n; i++ {
		p.H[i] = src.Gauss(0, 1)
		for j := i + 1; j < n; j++ {
			if src.Float64() < density {
				p.AddEdge(i, j, src.Gauss(0, 1))
			}
		}
	}
	p.Offset = src.Gauss(0, 0.5)
	return p
}

// modulationProgram compiles the logical Ising program of one random MIMO
// detection instance — the reduction output the full-connectivity path runs.
func modulationProgram(t testing.TB, mod modulation.Modulation, nt int, seed int64) *qubo.Sparse {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return qubo.SparseFromIsing(reduction.ReduceToIsing(in.Mod, in.H, in.Y))
}

// embeddedProgram compiles a BPSK instance onto Chimera chains — the
// device-shaped CSR (chains, couplers, per-qubit fields) the machine sweeps.
func embeddedProgram(t testing.TB) *qubo.Sparse {
	t.Helper()
	emb, err := embedding.Embed(chimera.New(4), 12)
	if err != nil {
		t.Fatal(err)
	}
	in, err := mimo.Generate(rng.New(12), mimo.Config{
		Mod: modulation.BPSK, Nt: 12, Nr: 12, Channel: channel.RandomPhase{}, SNRdB: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := emb.EmbedIsing(reduction.ReduceToIsing(in.Mod, in.H, in.Y), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	return ep.Phys
}

// equivPrograms is the differential corpus: every program family the engine
// serves in production plus adversarial random graphs.
func equivPrograms(t testing.TB) map[string]*qubo.Sparse {
	return map[string]*qubo.Sparse{
		"bpsk":        modulationProgram(t, modulation.BPSK, 10, 101),
		"qpsk":        modulationProgram(t, modulation.QPSK, 7, 102),
		"qam16":       modulationProgram(t, modulation.QAM16, 4, 103),
		"chimera":     embeddedProgram(t),
		"rand-dense":  gnpSparse(rng.New(5), 40, 0.5),
		"rand-sparse": gnpSparse(rng.New(6), 60, 0.08),
		"fields-only": gnpSparse(rng.New(7), 16, 0),
	}
}

// runEquiv drives a packed block and its per-replica scalar twins through an
// identical β schedule from identically-split sources, asserting bit-equal
// energies after every sweep and bit-equal spins at the end.
func runEquiv(t *testing.T, prog *qubo.Sparse, replicas int, seed int64, sched MSSchedule) {
	t.Helper()
	k, err := NewMSKernel(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Two identically-seeded sources yield identical stream seeds: lane r of
	// the block and twin r consume the same randomness in the same order.
	block, err := k.NewBlock(replicas, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	twinSrc := rng.New(seed)
	twins := make([]*MSScalar, replicas)
	for r := range twins {
		twins[r] = k.NewScalar(twinSrc)
	}
	block.Init()
	for _, tw := range twins {
		tw.Init()
	}
	for r, tw := range twins {
		if math.Float64bits(block.Energy(r)) != math.Float64bits(tw.Energy()) {
			t.Fatalf("replica %d: initial energy mismatch: packed %v scalar %v",
				r, block.Energy(r), tw.Energy())
		}
	}
	for s := 0; s < sched.Sweeps; s++ {
		beta := sched.beta(s)
		block.SetAllBeta(beta)
		block.Sweep()
		for r, tw := range twins {
			tw.SetBeta(beta)
			tw.Sweep()
			if math.Float64bits(block.Energy(r)) != math.Float64bits(tw.Energy()) {
				t.Fatalf("replica %d diverged at sweep %d (β=%g): packed %v scalar %v",
					r, s, beta, block.Energy(r), tw.Energy())
			}
		}
	}
	for r, tw := range twins {
		ps, ss := block.Spins(r), tw.Spins()
		for i := range ps {
			if ps[i] != ss[i] {
				t.Fatalf("replica %d: spin %d differs after run: packed %d scalar %d",
					r, i, ps[i], ss[i])
			}
		}
		// The incrementally-maintained energy must agree with a from-scratch
		// evaluation of the final state (plain float tolerance — the sum
		// orders differ).
		e := prog.Energy(ps)
		if math.Abs(e-block.Energy(r)) > 1e-9*(1+math.Abs(e)) {
			t.Fatalf("replica %d: incremental energy %v drifted from evaluated %v",
				r, block.Energy(r), e)
		}
	}
}

// TestPackedMatchesScalarSweep is the differential harness over golden seeds.
func TestPackedMatchesScalarSweep(t *testing.T) {
	sched := MSSchedule{BetaInitial: 0.4, BetaFinal: 6, Sweeps: 15}
	for name, prog := range equivPrograms(t) {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 1337} {
				runEquiv(t, prog, 7, seed, sched)
			}
		})
	}
}

// TestPackedFullWidth pins the 64-replica word edge cases (the mask covers
// the whole word; replica 63's flip bit lands in the sign position).
func TestPackedFullWidth(t *testing.T) {
	prog := gnpSparse(rng.New(9), 24, 0.3)
	runEquiv(t, prog, MaxReplicasPerBlock, 4, MSSchedule{BetaInitial: 0.3, BetaFinal: 8, Sweeps: 10})
	runEquiv(t, prog, 1, 4, MSSchedule{BetaInitial: 0.3, BetaFinal: 8, Sweeps: 10})
}

// TestRunMultiSpinDeterministicAcrossWorkers pins the engine's contract that
// worker count never changes results: replica r always owns the r-th child
// stream.
func TestRunMultiSpinDeterministicAcrossWorkers(t *testing.T) {
	prog := gnpSparse(rng.New(14), 30, 0.25)
	sched := MSSchedule{BetaInitial: 0.3, BetaFinal: 8, Sweeps: 12}
	s1, e1, err := RunMultiSpin(prog, sched, 150, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s4, e4, err := RunMultiSpin(prog, sched, 150, 4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for r := range e1 {
		if math.Float64bits(e1[r]) != math.Float64bits(e4[r]) {
			t.Fatalf("replica %d: energy differs across worker counts", r)
		}
		for i := range s1[r].Spins {
			if s1[r].Spins[i] != s4[r].Spins[i] {
				t.Fatalf("replica %d: spin %d differs across worker counts", r, i)
			}
		}
	}
}

// checkDeviceRead sets up one device read exactly as a machine worker does
// (auto-scale, ICE draw, stream seed, start state), rebuilds the program that
// read is sweeping — its perturbed fields and couplers — as a qubo.Sparse,
// compiles that from scratch, and walks a scalar twin beside the read from
// the same state and stream: cached fields, spins, energy and stream position
// must stay bit-identical after every sweep.
func checkDeviceRead(t *testing.T, m *Machine, prog *qubo.Sparse, improved bool, initial []int8, betas []float64, seed int64) {
	t.Helper()
	pp := m.PrepareProgram(prog, improved)
	rd := new(deviceRead)
	rd.warm([]Slot{{PP: pp}})
	rd.begin(pp, prog.H, pp.scale(prog.H), m.ICE, initial, uint64(seed), 0)

	pert := qubo.NewSparse(prog.N)
	copy(pert.H, rd.k.h)
	for i := 0; i < prog.N; i++ {
		for p := rd.k.start[i]; p < rd.k.start[i+1]; p++ {
			if j := int(rd.k.nbr[p]); j > i {
				pert.AddEdge(i, j, rd.k.w[p])
			}
		}
	}
	k, err := NewMSKernel(pert)
	if err != nil {
		t.Fatal(err)
	}
	tw := k.NewScalar(rng.New(seed))
	if err := tw.InitFrom(rd.s.spins); err != nil {
		t.Fatal(err)
	}
	tw.state = rd.s.state

	same := func(when string) {
		t.Helper()
		if math.Float64bits(rd.s.energy) != math.Float64bits(tw.energy) || rd.s.state != tw.state {
			t.Fatalf("%s: device read (E=%v, stream %#x) diverged from the twin (E=%v, stream %#x)",
				when, rd.s.energy, rd.s.state, tw.energy, tw.state)
		}
		for i := range tw.spins {
			if rd.s.spins[i] != tw.spins[i] || math.Float64bits(rd.s.lam[i]) != math.Float64bits(tw.lam[i]) {
				t.Fatalf("%s: spin %d: device read (σ=%d, λ=%v) diverged from the twin (σ=%d, λ=%v)",
					when, i, rd.s.spins[i], rd.s.lam[i], tw.spins[i], tw.lam[i])
			}
		}
	}
	same("at the start")
	for s, beta := range betas {
		rd.s.SetBeta(beta)
		rd.s.Sweep()
		tw.SetBeta(beta)
		tw.Sweep()
		same(fmt.Sprintf("after sweep %d (β=%g)", s, beta))
	}
}

// TestDeviceReadMatchesTwinOnPerturbedProgram runs the device-read half of
// the harness over the corpus: forward reads from random states and reverse
// reads from a given one, with and without ICE, both coupler ranges, on the
// machine's own ramp-with-pause schedule.
func TestDeviceReadMatchesTwinOnPerturbedProgram(t *testing.T) {
	params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 1}
	for name, prog := range equivPrograms(t) {
		t.Run(name, func(t *testing.T) {
			for _, ice := range []bool{true, false} {
				m := NewMachine()
				m.ICE.Enabled = ice
				betas := ScheduleFromParams(m, params).betas()
				for seed := int64(1); seed <= 3; seed++ {
					checkDeviceRead(t, m, prog, seed%2 == 0, nil, betas, seed)
				}
				checkDeviceRead(t, m, prog, true, randomSpins(rng.New(8), prog.N), betas, 4)
			}
		})
	}
}
