package experiments

import (
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// Fig10Config drives the TTB box plots (paper Fig. 10): the distribution of
// TTB at target BER 1e-6 across instances, per edge configuration, for
// QuAMax (Fix) with the Opt oracle for reference.
type Fig10Config struct {
	Quick     bool
	Instances int
	Anneals   int
	Grid      OptGrid
	TargetBER float64
	Seed      int64
}

// Fig10Quick is the bench-scale preset (paper: 20 instances).
func Fig10Quick() Fig10Config {
	return Fig10Config{
		Quick:     true,
		Instances: 4,
		Anneals:   200,
		Grid:      QuickOptGrid(),
		TargetBER: 1e-6,
		Seed:      10,
	}
}

// Fig10Full matches the paper's statistics.
func Fig10Full() Fig10Config {
	return Fig10Config{
		Instances: 20,
		Anneals:   2000,
		Grid:      DefaultOptGrid(),
		TargetBER: 1e-6,
		Seed:      10,
	}
}

// Fig10 reports the TTB five-number summaries.
func Fig10(e *Env, cfg Fig10Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 10: TTB to BER %.0e (boxes across instances)", cfg.TargetBER),
		Columns: []Column{
			col("config", "%v"), col("strategy", "%v"), colMicros("p5"), colMicros("q1"), colMicros("median"),
			colMicros("q3"), colMicros("p95"), colMicros("mean"), col("reached", "%v"),
		},
		Notes: []string{
			"instances that cannot reach the target within the run appear in reached=k/n and inflate the mean (paper: mean TTB dominates median)",
		},
	}
	for mod, users := range eachClass(edgeConfigs(cfg.Quick)) {
		ms, err := e.measureEdge(mod, users, cfg.Instances, cfg.Seed, cfg.Anneals, cfg.Grid, cfg.TargetBER,
			rng.New(cfg.Seed+int64(users)))
		if err != nil {
			return nil, err
		}
		for _, strat := range []struct {
			label string
			ttb   func(fixOpt) float64
		}{
			{"Opt", func(m fixOpt) float64 { return m.optTTB }},
			{"Fix", func(m fixOpt) float64 { return m.fixTTB }},
		} {
			b := metrics.Box(project(ms, strat.ttb))
			t.AddRow(configName(mod, users), strat.label,
				b.P5, b.Q1, b.Median, b.Q3, b.P95, b.Mean, reached{b.Finite, b.Total})
		}
	}
	return t, nil
}
