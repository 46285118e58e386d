package detector

import (
	"quamax/internal/anneal"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// ParallelTempering solves the SAME logical Ising problem QuAMax builds with
// replica-exchange Monte Carlo over the Metropolis engine (anneal.RunPT) —
// the strongest classical stand-in for the QPU (ParaMax; Kim et al., MobiCom
// 2021). Where ClassicalSA restarts independent cooling schedules, parallel
// tempering runs a fixed temperature ladder whose rungs exchange replicas,
// so hot rungs keep supplying the cold rungs with escapes from local minima;
// every rung is one scalar twin, the sweep body ClassicalSA's restarts and
// the device reads run. Like ClassicalSA it needs no embedding, chains, ICE
// or hardware ranges.
type ParallelTempering struct {
	// Params forwards to anneal.RunPT; zero fields take the engine defaults
	// (β ladder auto-scaled to the problem's coefficient magnitude).
	Params anneal.PTParams
	// Workers bounds ladder-level goroutine parallelism (≤ 0 means one).
	Workers int
}

// NewParallelTempering returns a configuration with effort comparable to
// NewClassicalSA(sweeps, restarts): ladders play the role of restarts (each
// contributes an independent cold sample) at the same per-ladder sweep count.
func NewParallelTempering(rungs, ladders, sweeps int) *ParallelTempering {
	return &ParallelTempering{
		Params: anneal.PTParams{Rungs: rungs, Ladders: ladders, Sweeps: sweeps},
	}
}

// Decode reduces (H, y) to Ising form, runs parallel tempering on it, and
// returns the Gray bits of the best configuration observed on any rung.
func (c *ParallelTempering) Decode(mod modulation.Modulation, h *linalg.Mat, y []complex128, src *rng.Source) (Result, error) {
	p := reduction.ReduceToIsing(mod, h, y)
	out, err := anneal.RunPT(qubo.SparseFromIsing(p), c.Params, c.Workers, src)
	if err != nil {
		return Result{}, err
	}
	qbits := qubo.BitsFromSpins(out.BestSpins)
	symbols := reduction.BitsToSymbols(mod, qbits)
	res := finish(mod, h, y, symbols, 0)
	res.Bits = mod.PostTranslate(qbits)
	return res, nil
}
