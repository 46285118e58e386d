package experiments

import (
	"fmt"

	"quamax/internal/core"
	"quamax/internal/embedding"
	"quamax/internal/metrics"
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
		Title: "Future-chip projection (paper §8): Chimera vs Pegasus-era clique footprints",
		Columns: []Column{
			col("config", "%v"), col("N", "%d"), col("Chimera chain", "%d"), col("Chimera phys", "%d"),
			col("Pegasus chain", "%d"), col("Pegasus phys", "%d"), col("fits 5640?", "%v"),
		},
		Notes: []string{
			"Pegasus chain length N/12+1 per paper §8; feasibility vs a 5,640-qubit Advantage-class chip",
			"the paper's 175x175 QPSK projection (N=350) appears in the last row",
		},
	}
	for mod, nt := range eachClass([]class{
		{modulation.BPSK, []int{60, 175}},
		{modulation.QPSK, []int{18, 60, 100}},
		{modulation.QAM16, []int{9, 40}},
		{modulation.QPSK, []int{175}},
	}) {
		n := reduction.NumVariables(mod, nt)
		pPhys := embedding.PegasusPhysicalQubits(n)
		fits := "yes"
		if pPhys > futureQubits {
			fits = "NO"
		}
		t.AddRow(configName(mod, nt), n, embedding.ChainLength(n), embedding.PhysicalQubits(n),
			embedding.PegasusChainLength(n), pPhys, fits)
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
		Title: fmt.Sprintf("Ablation: forward Fix vs reverse annealing from ZF (%g dB)", cfg.SNRdB),
		Columns: []Column{
			col("config", "%v"), colMicros("fwd TTB p50"), colMicros("rev TTB p50"),
			colBER("fwd BER@Na"), colBER("rev BER@Na"), colBER("ZF-seed BER"),
		},
		Notes: []string{
			"reverse annealing refines the zero-forcing decision (§8 future work [68]); its candidate set includes the seed, so it lower-bounds ZF",
		},
	}
	for mod, users := range eachClass(bpskQPSK(cfg.BPSKUsers, cfg.QPSKUsers)) {
		src := rng.New(cfg.Seed + int64(users)*17 + int64(mod))
		fp := ClassFix(mod, cfg.Anneals)
		dec, err := e.decoder(fp.JF, fp.Improved, fp.Params, true)
		if err != nil {
			return nil, err
		}
		// ttb and ber are indexed forward = 0, reverse = 1.
		var ttb, ber [2][]float64
		var seedBER []float64
		for i := 0; i < cfg.Instances; i++ {
			in, err := genSquareInstance(src, mod, users, cfg.SNRdB)
			if err != nil {
				return nil, err
			}
			for dir, reverse := range []bool{false, true} {
				out, err := dec.Decode(core.Request{Mod: in.Mod, H: in.H, Y: in.Y, Truth: in, Reverse: reverse}, core.Budget{}, src)
				if err != nil {
					return nil, err
				}
				ttb[dir] = append(ttb[dir], out.Distribution.TTB(cfg.TargetBER, out.WallMicrosPerAnneal, out.Pf))
				ber[dir] = append(ber[dir], out.Distribution.ExpectedBER(cfg.Anneals))
			}
			seedBER = append(seedBER, zfBER(in))
		}
		t.AddRow(configName(mod, users), metrics.Median(ttb[0]), metrics.Median(ttb[1]),
			metrics.Median(ber[0]), metrics.Median(ber[1]), metrics.Mean(seedBER))
	}
	return t, nil
}
