package experiments

import (
	"fmt"
	"math"

	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// edgeConfigs are the "edge of QuAMax's performance capabilities" systems of
// Figs. 9–11: the largest sizes that embed on the DW2Q per modulation.
func edgeConfigs(quick bool) []class {
	if quick {
		return []class{
			{modulation.BPSK, []int{36, 48, 60}},
			{modulation.QPSK, []int{12, 18}},
			{modulation.QAM16, []int{6, 9}},
		}
	}
	return []class{
		{modulation.BPSK, []int{36, 48, 60}},
		{modulation.QPSK, []int{12, 15, 18}},
		{modulation.QAM16, []int{6, 8, 9}},
	}
}

// Fig9Config drives the TTB curves (paper Fig. 9): BER vs wall-clock time
// for the edge configurations, idealized Opt (upper panel) vs QuAMax Fix
// (lower panel).
type Fig9Config struct {
	Quick     bool
	Instances int
	Anneals   int
	NaGrid    []int
	Grid      OptGrid
	Seed      int64
}

// Fig9Quick is the bench-scale preset (paper: 20 instances).
func Fig9Quick() Fig9Config {
	return Fig9Config{
		Quick:     true,
		Instances: 3,
		Anneals:   200,
		NaGrid:    []int{1, 2, 5, 10, 20, 50, 100},
		Grid:      QuickOptGrid(),
		Seed:      9,
	}
}

// Fig9Full approaches the paper's statistics.
func Fig9Full() Fig9Config {
	return Fig9Config{
		Instances: 20,
		Anneals:   2000,
		NaGrid:    []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
		Grid:      DefaultOptGrid(),
		Seed:      9,
	}
}

// Fig9 emits the BER-vs-time series for every edge configuration, Opt chosen
// by TTB to BER 1e-6.
func Fig9(e *Env, cfg Fig9Config) (*Table, error) {
	t := &Table{
		Title: "Figure 9: Time-to-BER curves (noise-free, parallelization-amortized)",
		Columns: []Column{
			col("config", "%v"), col("strategy", "%v"), colMicros("time"),
			colBER("BER p50"), colBER("BER mean"), colBER("BER p10"), colBER("BER p90"),
		},
		Notes: []string{
			fmt.Sprintf("%d instances per configuration; Opt oracle over |J_F|×sp grid", cfg.Instances),
			"paper shape: larger users/higher modulation push curves right; mean lags median (outliers)",
		},
	}
	for mod, users := range eachClass(edgeConfigs(cfg.Quick)) {
		ms, err := e.measureEdge(mod, users, cfg.Instances, cfg.Seed, cfg.Anneals, cfg.Grid, 1e-6,
			rng.New(cfg.Seed+int64(users)+int64(mod)*1000))
		if err != nil {
			return nil, err
		}
		opt, fix := make([]*metrics.Distribution, len(ms)), make([]*metrics.Distribution, len(ms))
		for i, m := range ms {
			opt[i], fix[i] = m.opt, m.fix
		}
		last := ms[len(ms)-1]
		for _, strat := range []struct {
			label string
			dists []*metrics.Distribution
		}{{"Opt", opt}, {"Fix", fix}} {
			for _, na := range cfg.NaGrid {
				bers := expectedBERs(strat.dists, na)
				t.AddRow(configName(mod, users), strat.label, float64(na)*last.wall/math.Max(last.pf, 1),
					metrics.Median(bers), metrics.Mean(bers), metrics.Percentile(bers, 10), metrics.Percentile(bers, 90))
			}
		}
	}
	return t, nil
}
