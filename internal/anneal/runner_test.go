package anneal

// The replica runner against the block oracle: RunMultiSpin and RunPT, which
// run every replica on a scalar twin, must return exactly what the packed
// 64-lane engine returned when it served them (block_oracle_test.go) — across
// replica counts straddling the block width and across worker counts.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"quamax/internal/rng"
)

// sameFloats reports whether a and b hold bit-identical values.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestReplicaRunnerMatchesBlockOracle(t *testing.T) {
	sched := MSSchedule{BetaInitial: 0.3, BetaFinal: 8, Sweeps: 12, PauseSweeps: 3, PauseAt: 4}
	for name, prog := range equivPrograms(t) {
		for _, replicas := range []int{1, 63, 64, 65, 100, 128} {
			wantS, wantE, err := oracleRunMultiSpin(prog, sched, replicas, rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 5} {
				gotS, gotE, err := RunMultiSpin(prog, sched, replicas, workers, rng.New(31))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotS, wantS) || !sameFloats(gotE, wantE) {
					t.Errorf("%s: %d replicas on %d workers diverge from the block oracle", name, replicas, workers)
				}
			}
		}
	}
}

func TestRunPTMatchesBlockOracle(t *testing.T) {
	for name, prog := range equivPrograms(t) {
		for _, rungs := range []int{2, 16, 64} {
			for _, warm := range []bool{false, true} {
				params := PTParams{Rungs: rungs, Ladders: 5, Sweeps: 21, SwapEvery: 2}
				if warm {
					params.InitSpins = randomSpins(rng.New(32), prog.N)
				}
				want, err := oracleRunPT(prog, params, rng.New(33))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 5} {
					got, err := RunPT(prog, params, workers, rng.New(33))
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s: %d rungs, warm=%t, %d workers", name, rungs, warm, workers)
					if !reflect.DeepEqual(got.BestSpins, want.BestSpins) || !reflect.DeepEqual(got.Samples, want.Samples) {
						t.Errorf("%s: spins diverge from the block oracle", at)
					}
					if !sameFloats([]float64{got.BestEnergy}, []float64{want.BestEnergy}) || !sameFloats(got.Energies, want.Energies) {
						t.Errorf("%s: energies diverge from the block oracle", at)
					}
					if got.SwapAttempts != want.SwapAttempts || got.Swaps != want.Swaps {
						t.Errorf("%s: exchanges %d/%d, the block oracle's %d/%d",
							at, got.Swaps, got.SwapAttempts, want.Swaps, want.SwapAttempts)
					}
				}
			}
		}
	}
}
