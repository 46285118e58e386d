package experiments

import (
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// Fig11Config drives the Time-to-FER study (paper Fig. 11): the time to
// reach a target frame error rate for maximal internet frames down to
// TCP-ACK-sized frames.
type Fig11Config struct {
	Quick      bool
	Instances  int
	Anneals    int
	Grid       OptGrid
	FrameBytes []int
	TargetFER  float64
	Seed       int64
}

// Fig11Quick is the bench-scale preset.
func Fig11Quick() Fig11Config {
	return Fig11Config{
		Quick:      true,
		Instances:  4,
		Anneals:    200,
		Grid:       QuickOptGrid(),
		FrameBytes: []int{50, 1500},
		TargetFER:  1e-4,
		Seed:       11,
	}
}

// Fig11Full matches the paper's frame-size sweep.
func Fig11Full() Fig11Config {
	cfg := Fig11Quick()
	cfg.Quick = false
	cfg.Instances = 20
	cfg.Anneals = 2000
	cfg.Grid = DefaultOptGrid()
	cfg.FrameBytes = []int{50, 200, 1500}
	return cfg
}

// Fig11 reports median-Opt (idealized) and mean-Fix (QuAMax) Time-to-FER,
// Opt chosen by TTB to BER 1e-6.
func Fig11(e *Env, cfg Fig11Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 11: Time-to-FER %.0e vs frame size", cfg.TargetFER),
		Columns: []Column{
			col("config", "%v"), col("frame(B)", "%d"), colMicros("TTF median Opt"), colMicros("TTF mean Fix"),
			col("reached Fix", "%v"),
		},
		Notes: []string{
			"paper shape: low sensitivity to frame size (50 B vs 1500 B), tens of microseconds at the edge sizes",
		},
	}
	for mod, users := range eachClass(edgeConfigs(cfg.Quick)) {
		// Distributions once per instance per strategy; TTF per frame size.
		ms, err := e.measureEdge(mod, users, cfg.Instances, cfg.Seed, cfg.Anneals, cfg.Grid, 1e-6,
			rng.New(cfg.Seed+int64(users)*7))
		if err != nil {
			return nil, err
		}
		last := ms[len(ms)-1]
		for _, fb := range cfg.FrameBytes {
			fixTTF := project(ms, func(m fixOpt) float64 { return m.fix.TTF(cfg.TargetFER, fb*8, last.wall, last.pf) })
			optTTF := project(ms, func(m fixOpt) float64 { return m.opt.TTF(cfg.TargetFER, fb*8, last.wall, last.pf) })
			t.AddRow(configName(mod, users), fb, metrics.Median(optTTF), metrics.Mean(fixTTF), reachedOf(fixTTF))
		}
	}
	return t, nil
}
