package core

import (
	"errors"
	"fmt"

	"quamax/internal/anneal"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// DecodeInstanceReverse runs the paper's §8 future-work refinement: seed the
// annealer with a linear detector's decision and REVERSE-anneal around it
// (Venturelli & Kondratyev [68]). The zero-forcing solution provides the
// initial classical state; if the channel is singular, MMSE with the
// instance's noise variance is used; if both fail, the call errors.
//
// The returned Outcome is shaped exactly like DecodeInstance's, so the Fix /
// Opt / TTB machinery applies unchanged.
func (d *Decoder) DecodeInstanceReverse(in *mimo.Instance, src *rng.Source) (*Outcome, error) {
	seed, err := linearSeed(in)
	if err != nil {
		return nil, err
	}
	return d.decodeReverse(in.Mod, in.H, in.Y, in, seed, d.opts.Params, 0, src)
}

// ErrNoSeed reports that reverse annealing could not compute its linear
// starting state (the channel is too ill-conditioned for zero-forcing).
// Callers distinguish it from device errors: a missing seed means "run a
// forward anneal instead"; anything else is a real failure.
var ErrNoSeed = errors.New("core: no linear seed for reverse annealing")

// DecodeReverseWithParams runs reverse annealing on a raw channel use with
// per-call run knobs (jf ≤ 0 = configured |J_F|) — the reverse-mode
// counterpart of DecodeWithParams, used when the QoS planner prefers a
// reverse budget. The zero-forcing decision seeds the anneal, exactly like
// DecodeInstanceReverse but without ground truth (so Distribution ranks carry
// no bit-error information beyond the seed). It returns an error wrapping
// ErrNoSeed when the channel is too ill-conditioned for zero-forcing.
func (d *Decoder) DecodeReverseWithParams(mod modulation.Modulation, h *linalg.Mat, y []complex128, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	res, err := detector.ZeroForcing(mod, h, y)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSeed, err)
	}
	seed := qubo.SpinsFromBits(mod.GrayToQuAMaxBits(res.Bits))
	return d.decodeReverse(mod, h, y, nil, seed, params, jf, src)
}

// decodeReverse is the shared reverse-annealing pipeline; truth, when
// non-nil, fills the evaluation fields like DecodeInstance.
func (d *Decoder) decodeReverse(mod modulation.Modulation, h *linalg.Mat, y []complex128, truth *mimo.Instance, seed []int8, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	logical := reduction.ReduceToIsing(mod, h, y)
	emb, slots, err := d.embeddingFor(logical.N)
	if err != nil {
		return nil, err
	}
	ep, err := emb.EmbedIsing(logical, d.chainJF(jf), d.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	init := emb.PhysicalInit(seed)
	samples, err := d.opts.Machine.RunReverse(ep.Phys, params, d.opts.ImprovedRange, init, src)
	if err != nil {
		return nil, err
	}

	out := &Outcome{Pf: 1, WallMicrosPerAnneal: params.AnnealWallMicros()}
	if d.opts.AmortizeParallel {
		out.Pf = float64(slots)
	}
	acc := metrics.NewAccumulator(logical.N)
	if truth != nil {
		out.TxEnergy = logical.Energy(qubo.SpinsFromBits(truth.TxQUBOBits()))
	}
	bitErrs := func(qbits []byte) int {
		if truth == nil {
			return 0
		}
		return truth.BitErrors(mod.PostTranslate(qbits))
	}

	// Include the seed itself as a candidate: reverse annealing never does
	// worse than its linear starting point.
	seedBits := qubo.BitsFromSpins(seed)
	bestE := logical.Energy(seed)
	bestBits := seedBits
	acc.Add(string(seedBits), bestE, bitErrs(seedBits))

	for _, s := range samples {
		energy, spins, broken := ep.UnembeddedEnergy(s.Spins, src)
		out.BrokenChains += broken
		qbits := qubo.BitsFromSpins(spins)
		if energy < bestE {
			bestE = energy
			bestBits = qbits
		}
		acc.Add(string(qbits), energy, bitErrs(qbits))
	}
	out.Energy = bestE
	out.Bits = mod.PostTranslate(bestBits)
	out.Symbols = reduction.BitsToSymbols(mod, bestBits)
	out.Distribution = acc.Distribution()
	return out, nil
}

// linearSeed produces the reverse-annealing start state from a linear
// detector: detected symbols → QuAMax-transform bits → spins.
func linearSeed(in *mimo.Instance) ([]int8, error) {
	res, err := detector.ZeroForcing(in.Mod, in.H, in.Y)
	if err != nil {
		res, err = detector.MMSE(in.Mod, in.H, in.Y, in.NoiseVariance())
		if err != nil {
			return nil, err
		}
	}
	qbits := in.Mod.GrayToQuAMaxBits(res.Bits)
	return qubo.SpinsFromBits(qbits), nil
}
