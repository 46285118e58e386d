package detector

import (
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Why the parallel-tempering backend keeps its row beside classical SA
// (ROADMAP item 9 asked): at the serving defaults' effort — SA 128 sweeps ×
// 100 restarts, PT 16 rungs × 4 ladders × 100 sweeps — PT misses the ML
// answer (the sphere decoder's metric) less often than SA on 16-QAM, whose
// 4-spins-per-user energy landscape is where restarts from scratch stall, and
// the two are equal — both exact — on the BPSK class. Counts on a seeded
// Rayleigh corpus, not times; the sizing run behind the numbers (60 instances
// per point) is in docs/ARCHITECTURE.md, "Serving wiring".
func TestPTEarnsItsRowOn16QAMOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("a seeded count over 120 single-goroutine solves: nothing for the race detector to see")
	}
	sa, pt := NewClassicalSA(128, 100), NewParallelTempering(16, 4, 100)
	misses := func(mod modulation.Modulation, nt, instances int, seed int64) (saMiss, ptMiss int) {
		src := rng.New(seed)
		for i := 0; i < instances; i++ {
			h, y, _, _ := instance(src, mod, nt, nt, 20)
			ml, err := SphereDecode(mod, h, y, SphereOptions{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := sa.Decode(mod, h, y, src.Split())
			if err != nil {
				t.Fatal(err)
			}
			b, err := pt.Decode(mod, h, y, src.Split())
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-9 * (1 + ml.Metric)
			if a.Metric > ml.Metric+tol {
				saMiss++
			}
			if b.Metric > ml.Metric+tol {
				ptMiss++
			}
		}
		return saMiss, ptMiss
	}
	saMiss, ptMiss := misses(modulation.QAM16, 9, 30, 2201)
	t.Logf("16-QAM 9×9 (36 spins) at 20 dB: SA misses ML on %d/30, PT on %d/30", saMiss, ptMiss)
	if ptMiss >= saMiss {
		t.Errorf("16-QAM: PT misses ML on %d/30, SA on %d/30 — PT no longer earns its row", ptMiss, saMiss)
	}
	saMiss, ptMiss = misses(modulation.BPSK, 48, 10, 2202)
	t.Logf("BPSK 48×48 at 20 dB: SA misses ML on %d/10, PT on %d/10", saMiss, ptMiss)
	if saMiss != 0 || ptMiss != 0 {
		t.Errorf("BPSK 48×48: SA misses ML on %d/10, PT on %d/10, want both exact", saMiss, ptMiss)
	}
}
