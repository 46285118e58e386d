package experiments

import (
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Fig13Config drives the AWGN TTB study (paper Fig. 13): left panel sweeps
// the number of users at 20 dB SNR; right panel sweeps SNR at a fixed user
// count per modulation (48 BPSK, 14 QPSK, 4 16-QAM).
type Fig13Config struct {
	LeftSNR    float64
	LeftUsers  map[modulation.Modulation][]int
	RightUsers map[modulation.Modulation]int
	RightSNRs  []float64
	Instances  int
	Anneals    int
	Grid       OptGrid
	TargetBER  float64
	Seed       int64
}

// Fig13Quick is the bench-scale preset.
func Fig13Quick() Fig13Config {
	return Fig13Config{
		LeftSNR: 20,
		LeftUsers: map[modulation.Modulation][]int{
			modulation.BPSK:  {24, 48, 60},
			modulation.QPSK:  {6, 12, 18},
			modulation.QAM16: {3, 6, 9},
		},
		RightUsers: map[modulation.Modulation]int{
			modulation.BPSK: 48, modulation.QPSK: 14, modulation.QAM16: 4,
		},
		RightSNRs: []float64{10, 20, 30, 40},
		Instances: 3,
		Anneals:   200,
		Grid:      QuickOptGrid(),
		TargetBER: 1e-6,
		Seed:      13,
	}
}

// Fig13Full widens the sweeps.
func Fig13Full() Fig13Config {
	cfg := Fig13Quick()
	cfg.LeftUsers = map[modulation.Modulation][]int{
		modulation.BPSK:  {12, 24, 36, 48, 60},
		modulation.QPSK:  {6, 10, 14, 18},
		modulation.QAM16: {3, 6, 9},
	}
	cfg.RightSNRs = []float64{10, 15, 20, 25, 30, 40}
	cfg.Instances = 10
	cfg.Anneals = 2000
	cfg.Grid = DefaultOptGrid()
	return cfg
}

// Fig13 emits both panels.
func Fig13(e *Env, cfg Fig13Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 13: TTB to BER %.0e under AWGN", cfg.TargetBER),
		Columns: []Column{
			col("panel", "%v"), col("mod", "%v"), col("users", "%d"), col("SNR(dB)", "%g"),
			colMicros("TTB mean Fix"), colMicros("TTB median Opt"),
		},
		Notes: []string{
			"paper shape: graceful TTB degradation with more users at fixed SNR; improvement with SNR at fixed users; Opt shows little SNR sensitivity",
		},
	}
	// row measures one configuration over fresh AWGN instances.
	row := func(panel string, mod modulation.Modulation, users int, snr float64) error {
		src := rng.New(cfg.Seed + int64(users)*11 + int64(snr*3) + int64(mod)*101)
		ms := make([]fixOpt, cfg.Instances)
		for i := range ms {
			in, err := genSquareInstance(src, mod, users, snr)
			if err != nil {
				return err
			}
			if ms[i], err = e.measureFixOpt(in, cfg.Anneals, cfg.Grid, cfg.TargetBER, src); err != nil {
				return err
			}
		}
		t.AddRow(panel, mod, users, snr,
			metrics.Mean(project(ms, func(m fixOpt) float64 { return m.fixTTB })),
			metrics.Median(project(ms, func(m fixOpt) float64 { return m.optTTB })))
		return nil
	}
	mods := []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16}
	for _, mod := range mods {
		for _, users := range cfg.LeftUsers[mod] {
			if err := row("left", mod, users, cfg.LeftSNR); err != nil {
				return nil, err
			}
		}
	}
	for _, mod := range mods {
		for _, snr := range cfg.RightSNRs {
			if err := row("right", mod, cfg.RightUsers[mod], snr); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
