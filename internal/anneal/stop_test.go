package anneal

import (
	"reflect"
	"slices"
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// RunMultiSpinUntil at every stop index: for every repeat count, the capped
// run returns exactly the uncut run's replicas up to the first index at which
// the rule — re-evaluated here from the uncut run's own samples — holds, and
// all of them when it never does. Worker count does not matter: a capped run
// evaluates in replica order. CI runs this under -race -count=10.
func TestRunMultiSpinUntilIsPrefixOfUncutRun(t *testing.T) {
	const replicas = 24
	for name, p := range map[string]*qubo.Sparse{
		"qpsk4": modulationProgram(t, modulation.QPSK, 4, 7),
		"bpsk9": modulationProgram(t, modulation.BPSK, 9, 8),
	} {
		sched := MSSchedule{BetaInitial: 0.1, BetaFinal: 3, Sweeps: 6} // short: restarts disagree
		samples, energies, err := RunMultiSpin(p, sched, replicas, 3, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		stops := map[int]bool{}
		for repeats := 1; repeats <= replicas+1; repeats++ {
			// The oracle: walk the uncut run in replica order.
			want := replicas
			best, seen := 0, 0
			for a := 0; a < replicas; a++ {
				switch {
				case a > 0 && slices.Equal(samples[a].Spins, samples[best].Spins):
					seen++
				case a == 0 || energies[a] < energies[best]:
					best, seen = a, 1
				}
				if seen >= repeats {
					want = a + 1
					break
				}
			}
			for _, workers := range []int{1, 4} {
				got, gotE, err := RunMultiSpinUntil(p, sched, replicas, workers, repeats, rng.New(9))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != want {
					t.Fatalf("%s repeats=%d workers=%d: ran %d replicas, want %d", name, repeats, workers, len(got), want)
				}
				if !reflect.DeepEqual(got, samples[:want]) || !sameFloats(gotE, energies[:want]) {
					t.Fatalf("%s repeats=%d workers=%d: the %d replicas run are not the uncut run's first %d", name, repeats, workers, want, want)
				}
			}
			if want < replicas {
				stops[want] = true
			}
		}
		if len(stops) < 4 {
			t.Errorf("%s: the rule stopped early at %d distinct indices: the program no longer exercises it", name, len(stops))
		}
	}
}
