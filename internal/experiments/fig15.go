package experiments

import (
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/trace"

	"quamax/internal/channel"
)

// Fig15Config drives the trace-driven evaluation (paper Fig. 15 / §5.5):
// 8×8 channel uses sampled from a 96-antenna many-antenna trace at
// 25–35 dB SNR, BPSK and QPSK, reporting TTB and TTF for Fix and Opt.
type Fig15Config struct {
	Uses       int
	PickAnt    int
	SNRLow     float64
	SNRHigh    float64
	Anneals    int
	Grid       OptGrid
	TargetBER  float64
	TargetFER  float64
	FrameBytes int
	Seed       int64
}

// Fig15Quick is the bench-scale preset.
func Fig15Quick() Fig15Config {
	return Fig15Config{
		Uses: 6, PickAnt: 8,
		SNRLow: 25, SNRHigh: 35,
		Anneals:   200,
		Grid:      QuickOptGrid(),
		TargetBER: 1e-6, TargetFER: 1e-4, FrameBytes: 1500,
		Seed: 15,
	}
}

// Fig15Full matches the paper's channel-use count more closely.
func Fig15Full() Fig15Config {
	cfg := Fig15Quick()
	cfg.Uses = 50
	cfg.Anneals = 2000
	cfg.Grid = DefaultOptGrid()
	return cfg
}

// Fig15 runs the trace-driven decode; e.TracePath, when set, names the trace
// to replay in place of the synthetic Argos-like dataset.
func Fig15(e *Env, cfg Fig15Config) (*Table, error) {
	src := rng.New(cfg.Seed)
	var ds *trace.Dataset
	var err error
	if e.TracePath != "" {
		ds, err = trace.Load(e.TracePath)
	} else {
		gen := trace.DefaultGeneratorConfig()
		gen.Uses = cfg.Uses
		ds, err = trace.Generate(src, gen)
	}
	if err != nil {
		return nil, err
	}
	ds.NormalizeAveragePower()

	t := &Table{
		Title: "Figure 15: trace-driven 8x8 performance (25-35 dB)",
		Columns: []Column{
			col("mod", "%v"), col("metric", "%v"), colMicros("median Opt"), colMicros("mean Fix"),
			col("reached Fix", "%v"),
		},
		Notes: []string{
			fmt.Sprintf("%d channel uses, %d of %d antennas sampled per use", cfg.Uses, cfg.PickAnt, ds.Antennas),
			"paper shape: 1e-6 BER / 1e-4 FER within ~10us for QPSK, amortized ~2us for BPSK (paper)",
		},
	}
	ttbLabel := fmt.Sprintf("TTB %.0e", cfg.TargetBER)
	ttfLabel := fmt.Sprintf("TTF %.0e (%dB)", cfg.TargetFER, cfg.FrameBytes)
	for _, mod := range []modulation.Modulation{modulation.BPSK, modulation.QPSK} {
		ms := make([]fixOpt, cfg.Uses)
		for use := range ms {
			h, err := ds.Sample(src, use, cfg.PickAnt)
			if err != nil {
				return nil, err
			}
			snr := cfg.SNRLow + src.Float64()*(cfg.SNRHigh-cfg.SNRLow)
			bits := src.Bits(ds.Users * mod.BitsPerSymbol())
			in, err := mimo.FromParts(src, mimo.Config{
				Mod: mod, Nt: ds.Users, Nr: cfg.PickAnt,
				Channel: channel.Fixed{H: h, Label: "argos-synth"}, SNRdB: snr,
			}, h, bits)
			if err != nil {
				return nil, err
			}
			if ms[use], err = e.measureFixOpt(in, cfg.Anneals, cfg.Grid, cfg.TargetBER, src); err != nil {
				return nil, err
			}
		}
		// Both strategies' frame times use the instance's Fix-run wall and Pf.
		fixTTB := project(ms, func(m fixOpt) float64 { return m.fixTTB })
		fixTTF := project(ms, func(m fixOpt) float64 { return m.fix.TTF(cfg.TargetFER, cfg.FrameBytes*8, m.wall, m.pf) })
		optTTB := project(ms, func(m fixOpt) float64 { return m.optTTB })
		optTTF := project(ms, func(m fixOpt) float64 { return m.opt.TTF(cfg.TargetFER, cfg.FrameBytes*8, m.wall, m.pf) })
		t.AddRow(mod, ttbLabel, metrics.Median(optTTB), metrics.Mean(fixTTB), reachedOf(fixTTB))
		t.AddRow(mod, ttfLabel, metrics.Median(optTTF), metrics.Mean(fixTTF), reachedOf(fixTTF))
	}
	return t, nil
}
