package experiments

import (
	"fmt"

	"quamax/internal/metrics"
)

// Fig5Config drives the ferromagnetic-coupling microbenchmark (paper Fig. 5):
// TTS(0.99) as a function of |J_F| for several problem sizes, standard vs
// improved coupler dynamic range, Ta = 1 µs, no pause.
type Fig5Config struct {
	JFs       []float64
	BPSKUsers []int
	QPSKUsers []int
	Instances int
	Anneals   int
	Seed      int64
}

// Fig5Quick is the bench-scale preset (paper: J_F ∈ 1.0–10.0 step 0.5,
// 10 instances).
func Fig5Quick() Fig5Config {
	return Fig5Config{
		JFs:       []float64{1, 2, 4, 6, 8, 10},
		BPSKUsers: []int{12, 24, 36},
		QPSKUsers: []int{6, 12},
		Instances: 4,
		Anneals:   200,
		Seed:      5,
	}
}

// Fig5Full matches the paper's sweep.
func Fig5Full() Fig5Config {
	jfs := []float64{}
	for jf := 1.0; jf <= 10.0; jf += 0.5 {
		jfs = append(jfs, jf)
	}
	return Fig5Config{
		JFs:       jfs,
		BPSKUsers: []int{12, 24, 36},
		QPSKUsers: []int{6, 12, 18},
		Instances: 10,
		Anneals:   2000,
		Seed:      5,
	}
}

// Fig5 sweeps |J_F| and reports median/10th/90th-percentile TTS.
func Fig5(e *Env, cfg Fig5Config) (*Table, error) {
	t := &Table{
		Title: "Figure 5: TTS(0.99) vs |J_F| (Ta=1us, no pause)",
		Columns: []Column{
			col("mod", "%v"), col("users", "%d"), col("range", "%v"), col("JF", "%.1f"),
			colMicros("TTS p50"), colMicros("TTS p10"), colMicros("TTS p90"),
		},
		Notes: []string{
			fmt.Sprintf("%d instances, %d anneals each", cfg.Instances, cfg.Anneals),
			"paper shape: standard range has a size-dependent optimum |J_F|; improved range is flatter",
		},
	}
	for mod, users := range eachClass(bpskQPSK(cfg.BPSKUsers, cfg.QPSKUsers)) {
		ins, err := noiseFreeInstances(mod, users, cfg.Instances, cfg.Seed+int64(users))
		if err != nil {
			return nil, err
		}
		for _, improved := range []bool{false, true} {
			for _, jf := range cfg.JFs {
				fp := FixParams{JF: jf, Improved: improved, Params: paramsTa(1, cfg.Anneals)}
				tts, err := e.ttsPerInstance(ins, fp, cfg.Seed+int64(jf*10))
				if err != nil {
					return nil, err
				}
				t.AddRow(mod, users, rangeName(improved), jf,
					metrics.Median(tts), metrics.Percentile(tts, 10), metrics.Percentile(tts, 90))
			}
		}
	}
	return t, nil
}
