package experiments

import (
	"fmt"
	"math"

	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Fig8Config drives the pause-vs-no-pause BER study (paper Fig. 8): median
// BER of 18×18 QPSK as a function of the number of anneals and of wall-clock
// time, for the four strategies {pause, no pause} × {Fix, Opt}.
type Fig8Config struct {
	Users     int
	Instances int
	Anneals   int
	NaGrid    []int
	OptJFs    []float64
	OptSps    []float64
	Seed      int64
}

// Fig8Quick is the bench-scale preset (paper: 20 instances).
func Fig8Quick() Fig8Config {
	return Fig8Config{
		Users:     18,
		Instances: 4,
		Anneals:   300,
		NaGrid:    []int{1, 2, 5, 10, 20, 50, 100},
		OptJFs:    []float64{2, 4, 8},
		OptSps:    []float64{0.25, 0.45},
		Seed:      8,
	}
}

// Fig8Full matches the paper's instance count.
func Fig8Full() Fig8Config {
	cfg := Fig8Quick()
	cfg.Instances = 20
	cfg.Anneals = 2000
	cfg.NaGrid = []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	cfg.OptJFs = []float64{1, 2, 4, 6, 8, 10}
	cfg.OptSps = []float64{0.15, 0.25, 0.35, 0.45, 0.55}
	return cfg
}

// fig8Strategy is one plotted line.
type fig8Strategy struct {
	name  string
	pause bool
	opt   bool
}

// Fig8 reports median expected BER (Eq. 9) against Na and against time.
func Fig8(e *Env, cfg Fig8Config) (*Table, error) {
	strategies := []fig8Strategy{
		{"no-pause Fix", false, false},
		{"no-pause Opt", false, true},
		{"pause Fix", true, false},
		{"pause Opt", true, true},
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 8: BER vs anneals and time (%dx%d QPSK, median of %d instances)", cfg.Users, cfg.Users, cfg.Instances),
		Columns: []Column{
			col("strategy", "%v"), col("Na", "%d"), colMicros("time"),
			colBER("BER p50"), colBER("BER p15"), colBER("BER p85"),
		},
		Notes: []string{
			"paper shape: the pausing strategies dominate at equal TIME despite each anneal costing 2x (paper §5.3.2)",
		},
	}
	src := rng.New(cfg.Seed)
	ins, err := noiseFreeInstances(modulation.QPSK, cfg.Users, cfg.Instances, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The Opt oracle's figure of merit here is the anneal count that reaches
	// BER 1e-6 (the x axis), not a time.
	annealsTo1e6 := func(d *metrics.Distribution, _, _ float64) float64 {
		if na, ok := d.RequiredAnneals(1e-6); ok {
			return float64(na)
		}
		return math.Inf(1)
	}
	for _, s := range strategies {
		// Per-instance distribution under this strategy.
		dists := make([]*metrics.Distribution, len(ins))
		wall, fix := 2.0, DefaultFix(cfg.Anneals)
		if !s.pause {
			wall, fix.Params = 1.0, paramsTa(1, cfg.Anneals)
		}
		// Fix is the oracle over one point.
		points := []FixParams{fix}
		if s.opt {
			points = OptGrid{JFs: cfg.OptJFs, PausePositions: cfg.OptSps}.points(s.pause, cfg.Anneals)
		}
		for i, in := range ins {
			if _, dists[i], err = e.optOracle(in, points, false, src, annealsTo1e6); err != nil {
				return nil, err
			}
		}
		for _, na := range cfg.NaGrid {
			bers := expectedBERs(dists, na)
			t.AddRow(s.name, na, float64(na)*wall,
				metrics.Median(bers), metrics.Percentile(bers, 15), metrics.Percentile(bers, 85))
		}
	}
	return t, nil
}
