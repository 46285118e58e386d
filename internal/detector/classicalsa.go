package detector

import (
	"errors"

	"quamax/internal/anneal"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// ClassicalSA solves the SAME logical Ising problem QuAMax builds, with
// plain simulated annealing on a conventional CPU — the "best classical
// competition to QPUs" the paper cites (§2.2, §6: QA performance "could
// match the most highly optimized simulated annealing code run on the
// latest Intel processors"). Unlike the annealer simulator it needs no
// embedding, chains, ICE or hardware ranges: it is the software baseline a
// data center could run today.
type ClassicalSA struct {
	// Sweeps per restart over the N logical spins.
	Sweeps int
	// Restarts of the annealing schedule; the best energy wins.
	Restarts int
	// BetaInitial/BetaFinal bound the geometric cooling schedule.
	BetaInitial, BetaFinal float64
}

// NewClassicalSA returns a configuration comparable to the QPU simulator's
// per-run effort (Restarts ≈ Na).
func NewClassicalSA(sweeps, restarts int) *ClassicalSA {
	return &ClassicalSA{Sweeps: sweeps, Restarts: restarts, BetaInitial: 0.05, BetaFinal: 5}
}

// Decode reduces (H, y) to Ising form and anneals it directly — the restarts
// are the replicas of one engine run (anneal.RunMultiSpin): the program is
// compiled once and each restart is one scalar twin walking the schedule over
// it, the same sweep body a device read runs — returning the Gray bits of
// the lowest-energy configuration found.
func (c *ClassicalSA) Decode(mod modulation.Modulation, h *linalg.Mat, y []complex128, src *rng.Source) (Result, error) {
	return c.DecodeUntil(mod, h, y, 0, src)
}

// DecodeUntil is Decode with Restarts as a cap when repeats > 0: the decode
// ends once that many restarts have returned the best configuration so far —
// the answer the uncut decode would have given unless a later restart found a
// lower energy. Result.Restarts reports how many ran.
func (c *ClassicalSA) DecodeUntil(mod modulation.Modulation, h *linalg.Mat, y []complex128, repeats int, src *rng.Source) (Result, error) {
	if c.Sweeps < 1 || c.Restarts < 1 {
		return Result{}, errors.New("detector: ClassicalSA needs positive sweeps and restarts")
	}
	p := reduction.ReduceToIsing(mod, h, y)
	// Scale β to the problem's coefficient magnitude so the schedule is
	// size-independent.
	scale := p.MaxAbsCoefficient()
	if scale == 0 {
		scale = 1
	}
	sched := anneal.MSSchedule{
		BetaInitial: c.BetaInitial / scale * 4,
		BetaFinal:   c.BetaFinal / scale * 4,
		Sweeps:      c.Sweeps,
	}
	samples, energies, err := anneal.RunMultiSpinUntil(qubo.SparseFromIsing(p), sched, c.Restarts, 1, repeats, src)
	if err != nil {
		return Result{}, err
	}
	best := 0
	for r, e := range energies {
		if e < energies[best] {
			best = r
		}
	}
	qbits := qubo.BitsFromSpins(samples[best].Spins)
	symbols := reduction.BitsToSymbols(mod, qbits)
	res := finish(mod, h, y, symbols, 0)
	res.Bits = mod.PostTranslate(qbits)
	res.Restarts = len(samples)
	return res, nil
}
