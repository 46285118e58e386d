package anneal

import (
	"errors"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// RunReverse executes a batch of REVERSE anneals (paper §8 future work,
// Venturelli & Kondratyev [68]): instead of starting each cycle in the
// uniform superposition, the machine is initialized in a caller-supplied
// classical state (e.g. a linear detector's decision), the schedule is run
// backward from the cold end to the turning point sp, held there for the
// pause time, and then run forward to the cold end again. This performs a
// local quantum-assisted refinement around the initial state.
//
// In the simulator the analog is exact: each anneal starts from `initial`,
// heats from β_final to β(sp) over half the Ta sweep budget, holds at β(sp)
// for the Tp budget, and re-cools over the remaining half.
//
// params.PausePosition is the turning point (required, in (0,1));
// params.PauseTimeMicros may be zero for a pure down-up ramp.
func (m *Machine) RunReverse(prog *qubo.Sparse, params Params, improvedRange bool, initial []int8, src *rng.Source) ([]Sample, error) {
	if prog.N == 0 {
		return nil, errors.New("anneal: empty program")
	}
	return m.collect(Slot{PP: m.PrepareProgram(prog, improvedRange), H: prog.H, Init: initial}, params, src)
}

// appendReverseBetas appends the reverse cycle over sc as a per-sweep β list:
// heat linearly from the cold end to the turning point (the geometric
// schedule's β at the forward anneal's pause position turnAt) over half the
// Ta budget, hold for the Tp budget, re-cool over the other half.
func (sc MSSchedule) appendReverseBetas(betas []float64, turnAt float64) []float64 {
	sc.Sweeps = max(sc.Sweeps, 2)
	half := sc.Sweeps / 2
	turn := sc.at(turnAt)
	for k := 0; k < half; k++ {
		betas = append(betas, sc.BetaFinal+float64(k)/float64(half)*(turn-sc.BetaFinal))
	}
	for k := 0; k < sc.PauseSweeps; k++ {
		betas = append(betas, turn)
	}
	for k := 0; k < sc.Sweeps-half; k++ {
		betas = append(betas, turn+float64(k)/float64(sc.Sweeps-half)*(sc.BetaFinal-turn))
	}
	return betas
}
