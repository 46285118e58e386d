package experiments

import (
	"fmt"
	"math"

	"quamax/internal/channel"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Fig12Config drives the AWGN detail view (paper Fig. 12): one fixed
// 18-user QPSK channel and bit string, examined at six SNRs; per SNR the
// rank structure (gap between the two lowest energies, occurrence
// frequency, bit errors) is reported.
type Fig12Config struct {
	Users   int
	SNRs    []float64
	Anneals int
	Ranks   int
	Seed    int64
}

// Fig12Quick is the bench-scale preset.
func Fig12Quick() Fig12Config {
	return Fig12Config{
		Users:   12,
		SNRs:    []float64{10, 15, 20, 25, 30, 40},
		Anneals: 600,
		Ranks:   4,
		Seed:    12,
	}
}

// Fig12Full raises the anneal count.
func Fig12Full() Fig12Config {
	cfg := Fig12Quick()
	cfg.Anneals = 10000
	return cfg
}

// Fig12 reports the per-SNR rank detail.
func Fig12(e *Env, cfg Fig12Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 12: rank detail vs SNR (%d-user QPSK, fixed channel/bits)", cfg.Users),
		Columns: []Column{
			col("SNR(dB)", "%g"), col("rank", "%d"), col("dE% vs min", "%.2f"), col("freq", "%.4f"),
			col("bit errs", "%d"), col("P(best found)", "%.3f"),
		},
		Notes: []string{
			"paper shape: as SNR increases the ground-state probability and the rank-1/rank-2 energy gap grow (at 10 dB the paper's gap narrows to ~3%)",
		},
	}
	// One fixed channel and bit string; noise differs per SNR (paper §5.4).
	setup := rng.New(cfg.Seed)
	h := channel.RandomPhase{}.Generate(setup, cfg.Users, cfg.Users)
	bits := setup.Bits(cfg.Users * modulation.QPSK.BitsPerSymbol())

	fix := DefaultFix(cfg.Anneals)
	for _, snr := range cfg.SNRs {
		src := rng.New(cfg.Seed + int64(snr*10))
		in, err := mimo.FromParts(src, mimo.Config{
			Mod: modulation.QPSK, Nt: cfg.Users, Nr: cfg.Users,
			Channel: channel.Fixed{H: h}, SNRdB: snr,
		}, h, bits)
		if err != nil {
			return nil, err
		}
		dist, _, _, err := e.decodeDist(in, fix, false, src)
		if err != nil {
			return nil, err
		}
		minE := dist.Solutions[0].Energy
		pBest := float64(dist.Solutions[0].Count) / float64(dist.Total)
		for r, s := range dist.Solutions {
			if r >= cfg.Ranks {
				break
			}
			gap := 0.0
			if math.Abs(minE) > 1e-12 {
				gap = (s.Energy - minE) / math.Abs(minE) * 100
			}
			t.AddRow(snr, r+1, gap, float64(s.Count)/float64(dist.Total), s.BitErrors, pBest)
		}
	}
	return t, nil
}
