package anneal

// FuzzSweepEquivalence fuzzes the differential property that holds the
// engine honest: on a random small Ising instance, the bit-packed multi-spin
// sweep and its scalar twin must produce bit-identical per-replica energies
// after every sweep and identical final spins, and a device read of the
// instance must match the twin on its perturbed program (checkDeviceRead). The
// fuzzer owns the instance shape (size, density, coupling scale), the
// replica count and the schedule, so it explores corners the golden-seed
// harness does not (single-spin programs, field-free programs, extreme β,
// replica counts straddling the word width).

import (
	"math"
	"testing"

	"quamax/internal/rng"
)

func FuzzSweepEquivalence(f *testing.F) {
	// Seed corpus: typical, tiny, dense, field-free-ish, wide-replica and
	// extreme-β shapes.
	f.Add(int64(1), uint8(8), uint8(128), uint8(3), uint8(4), float64(1))
	f.Add(int64(42), uint8(20), uint8(40), uint8(6), uint8(1), float64(0.25))
	f.Add(int64(7), uint8(2), uint8(255), uint8(1), uint8(63), float64(8))
	f.Add(int64(-9), uint8(33), uint8(10), uint8(5), uint8(31), float64(100))
	f.Add(int64(123), uint8(1), uint8(0), uint8(2), uint8(64), float64(0.001))
	f.Fuzz(func(t *testing.T, seed int64, size, density, sweeps, replicas uint8, betaScale float64) {
		n := 1 + int(size)%48
		R := 1 + int(replicas)%MaxReplicasPerBlock
		nSweeps := 1 + int(sweeps)%8
		if !(betaScale > 0) || math.IsInf(betaScale, 0) {
			betaScale = 1
		}
		betaScale = math.Min(betaScale, 1e6)
		gen := rng.New(seed)
		prog := gnpSparse(gen, n, float64(density)/255)
		k, err := NewMSKernel(prog)
		if err != nil {
			t.Fatal(err)
		}
		block, err := k.NewBlock(R, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		twinSrc := rng.New(seed + 1)
		twins := make([]*MSScalar, R)
		for r := range twins {
			twins[r] = k.NewScalar(twinSrc)
		}
		block.Init()
		for _, tw := range twins {
			tw.Init()
		}
		sched := MSSchedule{BetaInitial: 0.3 * betaScale, BetaFinal: 8 * betaScale, Sweeps: nSweeps}
		for s := 0; s < sched.Sweeps; s++ {
			beta := sched.beta(s)
			block.SetAllBeta(beta)
			block.Sweep()
			for r, tw := range twins {
				tw.SetBeta(beta)
				tw.Sweep()
				if math.Float64bits(block.Energy(r)) != math.Float64bits(tw.Energy()) {
					t.Fatalf("replica %d/%d diverged at sweep %d (n=%d β=%g): packed %v scalar %v",
						r, R, s, n, beta, block.Energy(r), tw.Energy())
				}
			}
		}
		for r, tw := range twins {
			ps, ss := block.Spins(r), tw.Spins()
			for i := range ps {
				if ps[i] != ss[i] {
					t.Fatalf("replica %d: final spin %d differs", r, i)
				}
			}
		}
		// The same instance as a device program: one ICE-perturbed read
		// against the twin on a kernel compiled from the perturbed program.
		checkDeviceRead(t, NewMachine(), prog, R%2 == 0, nil, sched.betas(), seed+2)
	})
}

// ptConcurrencyCheck is shared by the -race exercise below: several ladders
// exchanging replicas on goroutine-parallel blocks must produce the same
// bits as a single-threaded run.
func ptConcurrencyCheck(t *testing.T, workers int) *PTResult {
	t.Helper()
	prog := gnpSparse(rng.New(61), 48, 0.2)
	res, err := RunPT(prog, PTParams{Rungs: 16, Ladders: 8, Sweeps: 40, SwapEvery: 2}, workers, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunPTConcurrentLadders drives concurrent replica exchange under
// multiple goroutine-parallel PT blocks (the CI race step runs this package
// with -race) and pins worker-count independence bit for bit.
func TestRunPTConcurrentLadders(t *testing.T) {
	serial := ptConcurrencyCheck(t, 1)
	for _, workers := range []int{2, 4, 8} {
		par := ptConcurrencyCheck(t, workers)
		if math.Float64bits(serial.BestEnergy) != math.Float64bits(par.BestEnergy) {
			t.Fatalf("workers=%d: best energy differs from serial run", workers)
		}
		if serial.Swaps != par.Swaps || serial.SwapAttempts != par.SwapAttempts {
			t.Fatalf("workers=%d: exchange counts differ from serial run", workers)
		}
		for l := range serial.Energies {
			if math.Float64bits(serial.Energies[l]) != math.Float64bits(par.Energies[l]) {
				t.Fatalf("workers=%d: ladder %d cold energy differs", workers, l)
			}
			for i := range serial.Samples[l].Spins {
				if serial.Samples[l].Spins[i] != par.Samples[l].Spins[i] {
					t.Fatalf("workers=%d: ladder %d spin %d differs", workers, l, i)
				}
			}
		}
	}
}

// TestPTParamValidation pins the PTParams guard rails.
func TestPTParamValidation(t *testing.T) {
	prog := gnpSparse(rng.New(63), 8, 0.5)
	bad := []PTParams{
		{Rungs: 1},
		{Rungs: MaxReplicasPerBlock + 1},
		{Ladders: -1},
		{Sweeps: -1},
		{SwapEvery: -1},
		{BetaMin: 2, BetaMax: 1},
		{InitSpins: make([]int8, prog.N+1)},
	}
	for i, p := range bad {
		if _, err := RunPT(prog, p, 1, rng.New(1)); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, p)
		}
	}
	// The zero value takes full defaults and runs.
	if _, err := RunPT(prog, PTParams{}, 1, rng.New(1)); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
}
