package experiments

import (
	"fmt"

	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/embedding"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// TableFuture projects the paper's §8 outlook onto concrete numbers: clique
// footprints under the next-generation (Pegasus-degree) topology where
// chains shrink from ⌈N/4⌉+1 to N/12+1 qubits, with feasibility against a
// 5,640-qubit Advantage-class chip. It quantifies the paper's claims that
// the new architecture "will permit ML problems of size, e.g. 175×175 for
// QPSK" and dramatically raises the parallelization factor.
func TableFuture() (*Table, error) {
	const futureQubits = 5640 // Advantage-generation (Pegasus P16) inventory

	t := &Table{
		Title:   "Future-chip projection (paper §8): Chimera vs Pegasus-era clique footprints",
		Columns: []string{"config", "N", "Chimera chain", "Chimera phys", "Pegasus chain", "Pegasus phys", "fits 5640?"},
		Notes: []string{
			"Pegasus chain length N/12+1 per paper §8; feasibility vs a 5,640-qubit Advantage-class chip",
			"the paper's 175x175 QPSK projection (N=350) appears in the last row",
		},
	}
	type cfg struct {
		mod modulation.Modulation
		nt  int
	}
	for _, c := range []cfg{
		{modulation.BPSK, 60}, {modulation.BPSK, 175},
		{modulation.QPSK, 18}, {modulation.QPSK, 60}, {modulation.QPSK, 100},
		{modulation.QAM16, 9}, {modulation.QAM16, 40},
		{modulation.QPSK, 175},
	} {
		n := reduction.NumVariables(c.mod, c.nt)
		cPhys := embedding.PhysicalQubits(n)
		pPhys := embedding.PegasusPhysicalQubits(n)
		fits := "yes"
		if pPhys > futureQubits {
			fits = "NO"
		}
		t.AddRow(
			fmt.Sprintf("%v %dx%d", c.mod, c.nt, c.nt),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", embedding.ChainLength(n)),
			fmt.Sprintf("%d", cPhys),
			fmt.Sprintf("%d", embedding.PegasusChainLength(n)),
			fmt.Sprintf("%d", pPhys),
			fits,
		)
	}
	return t, nil
}

// ReverseConfig drives the reverse-annealing ablation (paper §8 future work
// [68]): forward Fix vs reverse-from-zero-forcing on square channels at
// moderate SNR, comparing TTB and final BER.
type ReverseConfig struct {
	BPSKUsers []int
	QPSKUsers []int
	SNRdB     float64
	Instances int
	Anneals   int
	TargetBER float64
	Seed      int64
}

// ReverseQuick is the bench-scale preset.
func ReverseQuick() ReverseConfig {
	return ReverseConfig{
		BPSKUsers: []int{24, 36},
		QPSKUsers: []int{12},
		SNRdB:     20,
		Instances: 4,
		Anneals:   200,
		TargetBER: 1e-6,
		Seed:      16,
	}
}

// ReverseFull widens the statistics.
func ReverseFull() ReverseConfig {
	cfg := ReverseQuick()
	cfg.BPSKUsers = []int{24, 36, 48, 60}
	cfg.QPSKUsers = []int{12, 14, 18}
	cfg.Instances = 20
	cfg.Anneals = 2000
	return cfg
}

// AblationReverse compares forward vs reverse annealing.
func AblationReverse(e *Env, cfg ReverseConfig) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: forward Fix vs reverse annealing from ZF (%g dB)", cfg.SNRdB),
		Columns: []string{"config", "fwd TTB p50", "rev TTB p50", "fwd BER@Na", "rev BER@Na", "ZF-seed BER"},
		Notes: []string{
			"reverse annealing refines the zero-forcing decision (§8 future work [68]); its candidate set includes the seed, so it lower-bounds ZF",
		},
	}
	type group struct {
		mod   modulation.Modulation
		users []int
	}
	for _, g := range []group{
		{modulation.BPSK, cfg.BPSKUsers},
		{modulation.QPSK, cfg.QPSKUsers},
	} {
		for _, users := range g.users {
			src := rng.New(cfg.Seed + int64(users)*17 + int64(g.mod))
			fp := ClassFix(g.mod, cfg.Anneals)
			fwdDec, err := e.decoder(fp.JF, fp.Improved, fp.Params, true)
			if err != nil {
				return nil, err
			}
			var fwdTTB, revTTB, fwdBER, revBER, seedBER []float64
			for i := 0; i < cfg.Instances; i++ {
				in, err := mimo.Generate(src, mimo.Config{
					Mod: g.mod, Nt: users, Nr: users, Channel: channel.RandomPhase{}, SNRdB: cfg.SNRdB,
				})
				if err != nil {
					return nil, err
				}
				req := core.Request{Mod: in.Mod, H: in.H, Y: in.Y, Truth: in}
				fOut, err := fwdDec.Decode(req, core.Budget{}, src)
				if err != nil {
					return nil, err
				}
				fwdTTB = append(fwdTTB, fOut.Distribution.TTB(cfg.TargetBER, fOut.WallMicrosPerAnneal, fOut.Pf))
				fwdBER = append(fwdBER, fOut.Distribution.ExpectedBER(cfg.Anneals))

				req.Reverse = true
				rOut, err := fwdDec.Decode(req, core.Budget{}, src)
				if err != nil {
					return nil, err
				}
				revTTB = append(revTTB, rOut.Distribution.TTB(cfg.TargetBER, rOut.WallMicrosPerAnneal, rOut.Pf))
				revBER = append(revBER, rOut.Distribution.ExpectedBER(cfg.Anneals))
				seedBER = append(seedBER, zfBER(in))
			}
			t.AddRow(
				fmt.Sprintf("%v %dx%d", g.mod, users, users),
				fmtMicros(metrics.Median(fwdTTB)),
				fmtMicros(metrics.Median(revTTB)),
				fmtBER(metrics.Median(fwdBER)),
				fmtBER(metrics.Median(revBER)),
				fmtBER(metrics.Mean(seedBER)),
			)
		}
	}
	return t, nil
}

// zfBER measures the zero-forcing BER of one instance (1.0 when ZF fails).
func zfBER(in *mimo.Instance) float64 {
	spins, err := linearSeedBER(in)
	if err != nil {
		return 1
	}
	return spins
}

// linearSeedBER returns the ZF (or MMSE fallback) BER for an instance.
func linearSeedBER(in *mimo.Instance) (float64, error) {
	res, err := zfOrMMSE(in)
	if err != nil {
		return 0, err
	}
	return in.BER(res), nil
}

// zfOrMMSE returns the linear baseline's Gray bits.
func zfOrMMSE(in *mimo.Instance) ([]byte, error) {
	res, err := detector.ZeroForcing(in.Mod, in.H, in.Y)
	if err != nil {
		res, err = detector.MMSE(in.Mod, in.H, in.Y, in.NoiseVariance())
		if err != nil {
			return nil, err
		}
	}
	return res.Bits, nil
}
