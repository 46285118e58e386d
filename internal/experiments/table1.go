package experiments

import (
	"fmt"
	"math"

	"quamax/internal/channel"
	"quamax/internal/detector"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Table1Config drives the sphere-decoder complexity study (paper Table 1:
// visited nodes over a 13 dB Rayleigh channel, 10,000 instances).
type Table1Config struct {
	Instances int
	SNRdB     float64
	Seed      int64
}

// Table1Quick is the bench-scale preset.
func Table1Quick() Table1Config { return Table1Config{Instances: 40, SNRdB: 13, Seed: 1} }

// Table1Full matches the paper's instance count.
func Table1Full() Table1Config { return Table1Config{Instances: 10000, SNRdB: 13, Seed: 1} }

// table1Row groups the configurations the paper places on one complexity row.
type table1Row struct {
	class      string
	paperNodes string
	bpsk       int
	qpsk       int
	qam        int
}

var table1Rows = []table1Row{
	{class: "feasible", paperNodes: "~40", bpsk: 12, qpsk: 7, qam: 4},
	{class: "borderline", paperNodes: "~270", bpsk: 21, qpsk: 11, qam: 6},
	{class: "unfeasible", paperNodes: "~1900", bpsk: 30, qpsk: 15, qam: 8},
}

// Table1 measures the mean sphere-decoder visited-node count for each of the
// paper's nine configurations.
func Table1(_ *Env, cfg Table1Config) (*Table, error) {
	src := rng.New(cfg.Seed)
	measure := func(mod modulation.Modulation, nt int) (float64, error) {
		var total float64
		n := 0
		for i := 0; i < cfg.Instances; i++ {
			in, err := mimo.Generate(src, mimo.Config{
				Mod: mod, Nt: nt, Nr: nt, Channel: channel.Rayleigh{}, SNRdB: cfg.SNRdB,
			})
			if err != nil {
				return 0, err
			}
			res, err := detector.SphereDecode(mod, in.H, in.Y, detector.SphereOptions{})
			if err != nil {
				continue // rare rank-deficient Rayleigh draw
			}
			total += float64(res.VisitedNodes)
			n++
		}
		if n == 0 {
			return math.NaN(), nil
		}
		return total / float64(n), nil
	}

	const size, nodes = "%[1]dx%[1]d", "%.0f"
	t := &Table{
		Title: "Table 1: Sphere Decoder visited node count (13 dB Rayleigh)",
		Columns: []Column{
			col("class", "%v"), col("BPSK", size), col("nodes", nodes), col("QPSK", size), col("nodes", nodes),
			col("16-QAM", size), col("nodes", nodes), col("paper", "%v"),
		},
		Notes: []string{
			fmt.Sprintf("%d instances per configuration; paper used 10,000 over 50 subcarriers", cfg.Instances),
		},
	}
	for _, row := range table1Rows {
		b, err := measure(modulation.BPSK, row.bpsk)
		if err != nil {
			return nil, err
		}
		q, err := measure(modulation.QPSK, row.qpsk)
		if err != nil {
			return nil, err
		}
		g, err := measure(modulation.QAM16, row.qam)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.class, row.bpsk, b, row.qpsk, q, row.qam, g, row.paperNodes)
	}
	return t, nil
}
