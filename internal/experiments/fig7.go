package experiments

import (
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// Fig7Config drives the anneal-pause study (paper Fig. 7): TTS of 18-user
// QPSK versus pause position sp for pause times Tp ∈ {1, 10, 100} µs across
// |J_F| values, improved dynamic range, Ta = 1 µs. It also includes a no-ICE
// ablation so the pause benefit can be attributed.
type Fig7Config struct {
	PauseTimes     []float64
	PausePositions []float64
	JFs            []float64
	Users          int
	Instances      int
	Anneals        int
	Seed           int64
	IncludeNoICE   bool
}

// Fig7Quick is the bench-scale preset (paper: sp ∈ 0.15–0.55 step 0.02).
func Fig7Quick() Fig7Config {
	return Fig7Config{
		PauseTimes:     []float64{1, 10},
		PausePositions: []float64{0.15, 0.25, 0.35, 0.45, 0.55},
		JFs:            []float64{4, 8},
		Users:          12,
		Instances:      3,
		Anneals:        400,
		Seed:           7,
		IncludeNoICE:   true,
	}
}

// Fig7Full matches the paper's sweep density more closely.
func Fig7Full() Fig7Config {
	sps := []float64{}
	for sp := 0.15; sp <= 0.551; sp += 0.02 {
		sps = append(sps, sp)
	}
	return Fig7Config{
		PauseTimes:     []float64{1, 10, 100},
		PausePositions: sps,
		JFs:            []float64{2, 4, 6, 8, 10},
		Users:          18,
		Instances:      10,
		Anneals:        1000,
		Seed:           7,
		IncludeNoICE:   true,
	}
}

// Fig7 sweeps pause time and position.
func Fig7(e *Env, cfg Fig7Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 7: TTS vs anneal pause (QPSK %d users, improved range, Ta=1us)", cfg.Users),
		Columns: []Column{
			col("ICE", "%v"), col("Tp(us)", "%g"), col("sp", "%.2f"), col("JF", "%.1f"), colMicros("TTS p50"),
		},
		Notes: []string{
			"paper shape: Tp=1us beats longer pauses (pause time dominates wall clock); a mid-schedule sp is optimal",
		},
	}
	ins, err := noiseFreeInstances(modulation.QPSK, cfg.Users, cfg.Instances, cfg.Seed)
	if err != nil {
		return nil, err
	}
	iceModes := []bool{true}
	if cfg.IncludeNoICE {
		iceModes = append(iceModes, false)
	}
	baseICE := e.Machine.ICE
	defer func() { e.Machine.ICE = baseICE }()
	for _, ice := range iceModes {
		e.Machine.ICE.Enabled = ice
		iceName := "on"
		if !ice {
			iceName = "off"
		}
		for _, tp := range cfg.PauseTimes {
			for _, sp := range cfg.PausePositions {
				for _, jf := range cfg.JFs {
					fp := FixParams{JF: jf, Improved: true, Params: paramsPause(1, tp, sp, cfg.Anneals)}
					tts, err := e.ttsPerInstance(ins, fp, cfg.Seed+int64(sp*100)+int64(tp))
					if err != nil {
						return nil, err
					}
					t.AddRow(iceName, tp, sp, jf, metrics.Median(tts))
				}
			}
		}
	}
	return t, nil
}
