package anneal

import (
	"errors"
	"math"

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
	return m.RunPreparedReverse(m.PrepareProgram(prog, improvedRange), prog.H, params, initial, src)
}

// RunPreparedReverse is RunReverse on a program prepared once with
// PrepareProgram, under fresh linear fields h — what RunPrepared is to Run.
func (m *Machine) RunPreparedReverse(pp *PreparedProgram, h []float64, params Params, initial []int8, src *rng.Source) ([]Sample, error) {
	if params.PausePosition <= 0 || params.PausePosition >= 1 {
		return nil, errors.New("anneal: reverse annealing requires a turning point in (0,1)")
	}
	if len(initial) != pp.n {
		return nil, errors.New("anneal: initial state length mismatch")
	}
	return m.run(pp, h, params, initial, src)
}

// reverseAnneal performs one reverse annealing cycle.
func (st *annealState) reverseAnneal(params Params, initial []int8, src *rng.Source) []int8 {
	p := st.p
	m := st.machine

	st.perturb(src)
	copy(st.spins, initial)

	rampSweeps := int(math.Round(m.SweepsPerMicrosecond * params.AnnealTimeMicros))
	if rampSweeps < 2 {
		rampSweeps = 2
	}
	half := rampSweeps / 2
	pauseSweeps := 0
	if params.PauseTimeMicros > 0 {
		pauseSweeps = int(math.Round(m.SweepsPerMicrosecond * params.PauseTimeMicros))
	}
	// β at the turning point: the same geometric schedule position as the
	// forward anneal's pause.
	logRatio := math.Log(m.BetaFinal / m.BetaInitial)
	betaAt := func(s float64) float64 { return m.BetaInitial * math.Exp(logRatio*s) }
	betaTurn := betaAt(params.PausePosition)

	// Heat: β_final → β_turn.
	for k := 0; k < half; k++ {
		f := float64(k) / float64(half)
		st.sweep(m.BetaFinal+f*(betaTurn-m.BetaFinal), src)
	}
	// Hold at the turning point.
	for k := 0; k < pauseSweeps; k++ {
		st.sweep(betaTurn, src)
	}
	// Re-cool: β_turn → β_final.
	for k := 0; k < rampSweeps-half; k++ {
		f := float64(k) / float64(rampSweeps-half)
		st.sweep(betaTurn+f*(m.BetaFinal-betaTurn), src)
	}
	out := make([]int8, p.n)
	copy(out, st.spins)
	return out
}
