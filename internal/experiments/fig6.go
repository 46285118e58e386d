package experiments

import (
	"math"

	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// Fig6Config drives the anneal-time study (paper Fig. 6): TTS versus
// Ta ∈ {1, 10, 100} µs for QPSK problem sizes under both dynamic ranges,
// per-|J_F| scatter plus the best-|J_F| line.
type Fig6Config struct {
	AnnealTimes []float64
	JFs         []float64
	QPSKUsers   []int
	Instances   int
	Anneals     int
	Seed        int64
}

// Fig6Quick is the bench-scale preset.
func Fig6Quick() Fig6Config {
	return Fig6Config{
		AnnealTimes: []float64{1, 10, 100},
		JFs:         []float64{2, 4, 8},
		QPSKUsers:   []int{6, 12},
		Instances:   3,
		Anneals:     200,
		Seed:        6,
	}
}

// Fig6Full widens the statistics.
func Fig6Full() Fig6Config {
	cfg := Fig6Quick()
	cfg.JFs = []float64{1, 2, 3, 4, 6, 8, 10}
	cfg.Instances = 10
	cfg.Anneals = 1000
	return cfg
}

// Fig6 sweeps Ta × |J_F| × range for each user count and marks the best
// |J_F| per (users, range, Ta) — the paper's highlighted line.
func Fig6(e *Env, cfg Fig6Config) (*Table, error) {
	t := &Table{
		Title: "Figure 6: TTS vs anneal time (QPSK)",
		Columns: []Column{
			col("users", "%d"), col("range", "%v"), col("Ta(us)", "%g"), col("JF", "%.1f"),
			colMicros("TTS p50"), col("best-JF line", "%v"),
		},
		Notes: []string{
			"paper shape: improved range achieves its best TTS at Ta=1us regardless of size, with less |J_F| sensitivity",
		},
	}
	for _, users := range cfg.QPSKUsers {
		ins, err := noiseFreeInstances(modulation.QPSK, users, cfg.Instances, cfg.Seed+int64(users))
		if err != nil {
			return nil, err
		}
		for _, improved := range []bool{false, true} {
			for _, ta := range cfg.AnnealTimes {
				medians := make([]float64, len(cfg.JFs))
				bestIdx, bestVal := 0, math.Inf(1)
				for i, jf := range cfg.JFs {
					fp := FixParams{JF: jf, Improved: improved, Params: paramsTa(ta, cfg.Anneals)}
					tts, err := e.ttsPerInstance(ins, fp, cfg.Seed+int64(jf*7)+int64(ta))
					if err != nil {
						return nil, err
					}
					medians[i] = metrics.Median(tts)
					if medians[i] < bestVal {
						bestVal = medians[i]
						bestIdx = i
					}
				}
				for i, jf := range cfg.JFs {
					mark := ""
					if i == bestIdx {
						mark = "*"
					}
					t.AddRow(users, rangeName(improved), ta, jf, medians[i], mark)
				}
			}
		}
	}
	return t, nil
}
