package experiments

import (
	"fmt"

	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Fig4Config drives the empirical-QA-results detail (paper Fig. 4): six
// 36-logical-qubit decoding problems — 36×36 BPSK, 18×18 QPSK, 9×9 16-QAM,
// two channel uses each — showing, per energy rank, the relative energy gap
// ΔE, the occurrence frequency, and the rank's bit errors.
type Fig4Config struct {
	Anneals  int
	TopRanks int // ranks to print per panel
	Seed     int64
}

// Fig4Quick is the bench-scale preset (the paper post-processes 50,000
// anneals per panel).
func Fig4Quick() Fig4Config { return Fig4Config{Anneals: 400, TopRanks: 5, Seed: 4} }

// Fig4Full approaches the paper's statistics.
func Fig4Full() Fig4Config { return Fig4Config{Anneals: 20000, TopRanks: 10, Seed: 4} }

// fig4Classes are the three 36-logical-qubit problems.
var fig4Classes = []class{
	{modulation.BPSK, []int{36}}, {modulation.QPSK, []int{18}}, {modulation.QAM16, []int{9}},
}

// Fig4 runs the six panels.
func Fig4(e *Env, cfg Fig4Config) (*Table, error) {
	t := &Table{
		Title: "Figure 4: Ising energy rank vs occurrence vs bit errors (36 logical qubits, noise-free)",
		Columns: []Column{
			col("panel", "%v"), col("P0", "%.3f"), col("rank", "%d"), col("dE%", "%.2f"),
			col("freq", "%.4f"), col("bit errs", "%d"),
		},
		Notes: []string{
			fmt.Sprintf("%d anneals per panel at the Fix operating point", cfg.Anneals),
			"paper shape: P0 decreases left to right (BPSK 36 > QPSK 18 > 16-QAM 9)",
		},
	}
	fix := DefaultFix(cfg.Anneals)
	src := rng.New(cfg.Seed)
	for mod, users := range eachClass(fig4Classes) {
		for use := 0; use < 2; use++ {
			ins, err := noiseFreeInstances(mod, users, use+1, cfg.Seed+int64(use)*100+int64(mod))
			if err != nil {
				return nil, err
			}
			in := ins[use] // distinct channel uses per panel
			dist, _, _, err := e.decodeDist(in, fix, false, src)
			if err != nil {
				return nil, err
			}
			p0 := dist.GroundProbability(0, groundTol)
			name := fmt.Sprintf("%s use%d", configName(mod, users), use+1)
			minE := dist.Solutions[0].Energy
			for r, s := range dist.Solutions {
				if r >= cfg.TopRanks {
					break
				}
				dE := 0.0
				if minE > groundTol {
					dE = (s.Energy - minE) / minE * 100
				} else if r > 0 {
					dE = s.Energy // ground is 0: report absolute energy
				}
				t.AddRow(name, p0, r+1, dE, float64(s.Count)/float64(dist.Total), s.BitErrors)
			}
		}
	}
	return t, nil
}
